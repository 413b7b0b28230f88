package experiment

// The keystone suite for the incremental engines: driving a campaign
// through NewEngine + AppendDay/AppendRound — one round at a time, in
// any process arrangement — must produce artifacts value-identical to a
// single batch Run over the same day range. The suite covers the plain
// engine loop, long-interval jitter, parallel collection, a crash
// (Close without Checkpoint) and resume mid-stream, and the incremental
// Table V re-verification.
//
// Run with -race: the engines claim AppendDay publishes each sealed
// round before returning, and the daemon binaries call the accessors
// from the same goroutine — but the collector fans out internally, so
// the race detector guards the engine's aggregation step.

import (
	"fmt"
	"testing"

	"rrdps/internal/obs"
)

// driveDynamics appends days one at a time to the configured horizon,
// force-checkpoints, and assembles the result — the daemon loop in
// miniature. The config's Days is left at zero, daemon style, so the
// test also pins that an engine needs no horizon of its own.
func driveDynamics(t *testing.T, cfg Dynamics, days int) DynamicsResult {
	t.Helper()
	en := cfg.NewEngine()
	defer en.Close()
	for en.NextDay() < days {
		en.AppendDay()
	}
	en.Checkpoint()
	return en.Result()
}

// driveResidual appends collection rounds (warm-up steps, then scan
// weeks) to the configured horizon, daemon style.
func driveResidual(t *testing.T, cfg Residual, weeks int) ResidualResult {
	t.Helper()
	en := cfg.NewEngine()
	defer en.Close()
	for en.InWarmup() || en.NextWeek() <= weeks {
		en.AppendRound()
	}
	en.Checkpoint()
	return en.Result()
}

func TestAppendDayMatchesBatch(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		batch := Dynamics{World: dynamicsWorld(400, 4242), Days: 12}.Run()
		engine := driveDynamics(t, Dynamics{World: dynamicsWorld(400, 4242)}, 12)
		diffResults(t, engine, batch)
	})

	t.Run("long-intervals", func(t *testing.T) {
		mk := func() Dynamics {
			return Dynamics{
				World:            dynamicsWorld(300, 777),
				LongIntervalProb: 0.3,
			}
		}
		batchCfg := mk()
		batchCfg.Days = 10
		batch := batchCfg.Run()
		engine := driveDynamics(t, mk(), 10)
		diffResults(t, engine, batch)
	})

	t.Run("parallel-workers", func(t *testing.T) {
		mk := func() Dynamics {
			return Dynamics{World: dynamicsWorld(300, 778), Workers: 4}
		}
		batchCfg := mk()
		batchCfg.Days = 8
		// Workers > 1: resolver stats depend on goroutine interleaving over
		// the shared cache, the usual serial≡parallel latitude.
		diffResults(t, driveDynamics(t, mk(), 8), batchCfg.Run(), "Stats")
	})
}

func TestAppendRoundMatchesBatch(t *testing.T) {
	t.Run("warmup-and-weeks", func(t *testing.T) {
		mk := func() Residual {
			return Residual{
				World:              residualWorld(400, 4242),
				WarmupDays:         21,
				IncapsulaStartWeek: 4,
			}
		}
		batchCfg := mk()
		batchCfg.Weeks = 5
		diffResults(t, driveResidual(t, mk(), 5), batchCfg.Run())
	})

	t.Run("parallel-workers", func(t *testing.T) {
		mk := func() Residual {
			return Residual{World: residualWorld(300, 77), WarmupDays: 14, Workers: 4}
		}
		batchCfg := mk()
		batchCfg.Weeks = 3
		diffResults(t, driveResidual(t, mk(), 3), batchCfg.Run(), "Stats")
	})
}

// TestAppendDayKillResume crashes the engine mid-stream — Close WITHOUT
// Checkpoint, so recovery leans on the sealed WAL groups alone — and
// finishes the campaign from a second engine over a fresh world replica.
// The stitched result must be value-identical to an uninterrupted batch
// run without any checkpointing at all.
func TestAppendDayKillResume(t *testing.T) {
	const days, seed = 9, 9001
	mk := func() Dynamics { return Dynamics{World: dynamicsWorld(300, seed)} }
	batchCfg := mk()
	batchCfg.Days = days
	baseline := batchCfg.Run()

	for _, kill := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("kill-after-day-%d", kill), func(t *testing.T) {
			dir := t.TempDir()
			crashed := mk()
			crashed.CheckpointDir, crashed.CheckpointEvery = dir, 3
			en := crashed.NewEngine()
			for i := 0; i < kill; i++ {
				en.AppendDay()
			}
			en.Close() // crash: no final Checkpoint

			resumed := mk()
			resumed.CheckpointDir, resumed.CheckpointEvery = dir, 3
			resumed.Resume = true
			en2 := resumed.NewEngine()
			defer en2.Close()
			if got := en2.NextDay(); got != kill {
				t.Fatalf("resumed engine starts at day %d, want %d", got, kill)
			}
			for en2.NextDay() < days {
				en2.AppendDay()
			}
			en2.Checkpoint()
			diffResults(t, en2.Result(), baseline)
		})
	}
}

func TestAppendRoundKillResume(t *testing.T) {
	const weeks, warmup, seed = 3, 14, 9007
	mk := func() Residual {
		return Residual{World: residualWorld(300, seed), WarmupDays: warmup}
	}
	batchCfg := mk()
	batchCfg.Weeks = weeks
	baseline := batchCfg.Run()

	// Rounds: 2 warm-up steps (14 days at 7 per round), then 3 scan weeks.
	for _, kill := range []int{1, 3} { // mid-warm-up and mid-weeks
		t.Run(fmt.Sprintf("kill-after-round-%d", kill), func(t *testing.T) {
			dir := t.TempDir()
			crashed := mk()
			crashed.CheckpointDir, crashed.CheckpointEvery = dir, 10
			en := crashed.NewEngine()
			for i := 0; i < kill; i++ {
				en.AppendRound()
			}
			en.Close() // crash: no final Checkpoint

			resumed := mk()
			resumed.CheckpointDir, resumed.CheckpointEvery = dir, 10
			resumed.Resume = true
			en2 := resumed.NewEngine()
			defer en2.Close()
			for en2.InWarmup() || en2.NextWeek() <= weeks {
				en2.AppendRound()
			}
			en2.Checkpoint()
			diffResults(t, en2.Result(), baseline)
		})
	}
}

// TestAppendDayIncrementalReverify pins the incremental Table V
// re-verification: each AppendDay HTML-verifies at most as many domains
// as churned that day (the diff stream's changed pairs), never the whole
// population — and over a full campaign the verification workload is
// identical to the legacy pipeline's, which re-materializes both days as
// maps. The verify.* counters are the observable.
func TestAppendDayIncrementalReverify(t *testing.T) {
	const days, sites, seed = 12, 400, 4242

	legacyReg := obs.NewRegistry()
	legacyDynamics(Dynamics{World: dynamicsWorld(sites, seed), Days: days, Obs: legacyReg})
	legacyComparisons := legacyReg.Counter("verify.comparisons").Value()

	reg := obs.NewRegistry()
	en := Dynamics{World: dynamicsWorld(sites, seed), Obs: reg, SnapWindow: -1}.NewEngine()
	defer en.Close()
	comparisons := reg.Counter("verify.comparisons")

	var prev uint64
	for day := 0; day < days; day++ {
		en.AppendDay()
		delta := comparisons.Value() - prev
		prev = comparisons.Value()

		changed := 0
		for pairs := en.log.store.DiffPairs(day); pairs.Next(); {
			if !pairs.Pair().Unchanged() {
				changed++
			}
		}
		if day == 0 {
			if delta != 0 {
				t.Fatalf("day 0 ran %d verifications; there is no previous day to compare against", delta)
			}
			continue
		}
		if int(delta) > changed {
			t.Errorf("day %d: %d verifications for %d changed records — the engine re-verified unchanged domains",
				day, delta, changed)
		}
		if changed >= sites {
			t.Errorf("day %d: every record changed (%d of %d); the churn model broke and the bound above is vacuous",
				day, changed, sites)
		}
	}
	if got := comparisons.Value(); got != legacyComparisons {
		t.Errorf("campaign verification workload: engine %d comparisons, legacy %d", got, legacyComparisons)
	}
	if legacyComparisons == 0 {
		t.Error("no verifications at all; the workload comparison is vacuous")
	}
}
