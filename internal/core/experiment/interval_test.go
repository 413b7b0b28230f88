package experiment

import (
	"math"
	"testing"

	"rrdps/internal/core/behavior"
	"rrdps/internal/world"
)

// TestUnevenIntervalsProduceSpikes reproduces the paper's observation that
// uneven experiment intervals (20-30h) inflate day-to-day variance of the
// behaviour series, while even intervals "significantly reduce the
// spikes" (§IV-B.3).
func TestUnevenIntervalsProduceSpikes(t *testing.T) {
	build := func() *world.World {
		cfg := world.PaperConfig(1200)
		cfg.Seed = 881
		cfg.JoinRate = 0.01
		cfg.LeaveRate = 0.01
		cfg.PauseRate = 0.02
		cfg.SwitchRate = 0.005
		return world.New(cfg)
	}

	variance := func(res DynamicsResult) float64 {
		var counts []float64
		for day := 1; day < res.Days; day++ {
			total := 0
			for _, kind := range behavior.AllKinds() {
				total += res.CountsByDay[day][kind]
			}
			counts = append(counts, float64(total))
		}
		mean := 0.0
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		v := 0.0
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		return v / float64(len(counts)) / math.Max(mean, 1) // variance-to-mean
	}

	even := Dynamics{World: build(), Days: 20}.Run()
	uneven := Dynamics{
		World: build(), Days: 20,
		LongIntervalProb: 0.5,
	}.Run()

	ve, vu := variance(even), variance(uneven)
	if vu <= ve {
		t.Fatalf("uneven intervals did not inflate variance: even %.2f vs uneven %.2f", ve, vu)
	}
}

// TestLongGapsCompressReversedPairs: a PAUSE and its RESUME falling inside
// one long gap cancel out, so the uneven campaign detects fewer pause
// events than the even one — the paper's missed-reversed-pairs caveat.
func TestLongGapsCompressReversedPairs(t *testing.T) {
	build := func() *world.World {
		cfg := world.PaperConfig(1500)
		cfg.Seed = 883
		cfg.JoinRate = 0
		cfg.LeaveRate = 0
		cfg.SwitchRate = 0
		cfg.PauseRate = 0.05 // heavy pausing; ~half resume within a day
		return world.New(cfg)
	}
	even := Dynamics{World: build(), Days: 16}.Run()
	uneven := Dynamics{
		World: build(), Days: 16,
		LongIntervalProb: 0.9,
	}.Run()

	evenPauses := even.CountsByDay
	_ = evenPauses
	countKind := func(res DynamicsResult, k behavior.Kind) int {
		total := 0
		for _, c := range res.CountsByDay {
			total += c[k]
		}
		return total
	}
	// The uneven run covers ~1.9x the world-days in the same number of
	// snapshots; normalize per world-day before comparing.
	evenRate := float64(countKind(even, behavior.Pause)) / float64(even.Days)
	unevenRate := float64(countKind(uneven, behavior.Pause)) / (float64(uneven.Days) * 1.9)
	if unevenRate >= evenRate {
		t.Fatalf("long gaps did not compress pauses: even %.3f/day vs uneven %.3f/day",
			evenRate, unevenRate)
	}
}
