package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/core/report"
	"rrdps/internal/netsim"
	"rrdps/internal/world"
)

// TestPaperBaselineWorkersIdentical runs the paper-baseline world the way
// the dyn-daily benchmark workload does — seed replaced, one AppendDay per
// round — at 1, 2 and 4 collect workers. Result().String(), the report
// figures and the query accounting must agree byte for byte: the
// lock-free clock, health, cache and fabric paths change how much a day
// costs, never what it finds, and the resolver's in-flight
// de-duplication keeps workers from repeating each other's exchanges.
func TestPaperBaselineWorkersIdentical(t *testing.T) {
	spec, err := Load(filepath.Join("..", "..", "scenarios", "paper-baseline.json"))
	if err != nil {
		t.Fatalf("loading paper-baseline: %v", err)
	}
	comp := Compile(spec)
	cfg := comp.World
	cfg.Seed = 301
	const days = 5

	render := func(workers int) string {
		policy := comp.Policy
		en := experiment.Dynamics{World: world.New(cfg), Workers: workers, Policy: &policy}.NewEngine()
		defer en.Close()
		for en.NextDay() < days {
			en.AppendDay()
		}
		res := en.Result()
		var b strings.Builder
		b.WriteString(res.String())
		b.WriteString("\n" + res.Stats.String() + "\n")
		b.WriteString(report.Figure2(res))
		b.WriteString(report.Figure3(res))
		b.WriteString(report.TableV(res))
		return b.String()
	}
	serial := render(1)
	for _, workers := range []int{2, 4} {
		if got := render(workers); got != serial {
			t.Errorf("workers=%d report differs from workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s", workers, serial, workers, got)
		}
	}
}

// TestCompileBoostSemanticsPerKind pins the asymmetry the binaries
// implement: dynamics boosts all four hazards, residual leaves PauseRate
// alone.
func TestCompileBoostSemanticsPerKind(t *testing.T) {
	base := world.PaperConfig(2000)
	dyn := Compile(mustParse(t, `{
  "apiVersion": "rrdps/v1", "kind": "Scenario",
  "metadata": { "name": "dyn" },
  "campaign": { "kind": "dynamics", "churnBoost": 4 }
}`))
	if dyn.World.JoinRate != base.JoinRate*4 || dyn.World.LeaveRate != base.LeaveRate*4 ||
		dyn.World.PauseRate != base.PauseRate*4 || dyn.World.SwitchRate != base.SwitchRate*4 {
		t.Errorf("dynamics boost must scale all four hazards: %+v", dyn.World)
	}

	res := Compile(mustParse(t, `{
  "apiVersion": "rrdps/v1", "kind": "Scenario",
  "metadata": { "name": "res" },
  "campaign": { "kind": "residual", "churnBoost": 4 }
}`))
	if res.World.JoinRate != base.JoinRate*4 || res.World.LeaveRate != base.LeaveRate*4 ||
		res.World.SwitchRate != base.SwitchRate*4 {
		t.Errorf("residual boost must scale join/leave/switch: %+v", res.World)
	}
	if res.World.PauseRate != base.PauseRate {
		t.Errorf("residual boost must NOT scale PauseRate: got %v, want %v", res.World.PauseRate, base.PauseRate)
	}
}

// TestCompileOverrides exercises every spec section's lowering.
func TestCompileOverrides(t *testing.T) {
	comp := Compile(mustParse(t, `{
  "apiVersion": "rrdps/v1",
  "kind": "Scenario",
  "metadata": { "name": "kitchen-sink" },
  "campaign": {
    "kind": "residual",
    "sites": 800, "seed": 99, "weeks": 3, "warmupDays": 7,
    "incapsulaStartWeek": 2, "churnBoost": 2, "workers": 1, "snapWindow": 5
  },
  "resolver": { "retries": 5, "hedge": false },
  "world": {
    "nsRateLimit": { "windowHours": 24, "perSource": 100, "capacity": 5000 },
    "notifiedLeaveRate": 0.9,
    "paidPlanRate": 0.2,
    "decoyOnLeaveRate": 0.1,
    "purgeDelayFreeDays": 14,
    "purgeDelayPaidDays": 35
  },
  "faults": { "lossRate": 0.01, "burstRate": 0.002, "burstWindowHours": 3, "flakyRate": 0.005 },
  "waves": [ { "startDay": 2, "days": 4, "leaveMult": 5, "joinMult": 0.5 } ],
  "attack": { "bots": 10, "requestsPerBot": 20, "amplification": 30, "resolvers": 4, "startWeek": 2 }
}`))

	w := comp.World
	if w.NumSites != 800 || w.Seed != 99 {
		t.Errorf("sites/seed not lowered: %d/%d", w.NumSites, w.Seed)
	}
	if comp.Weeks != 3 || comp.WarmupDays != 7 || comp.IncapsulaStartWeek != 2 {
		t.Errorf("residual horizon not lowered: %+v", comp)
	}
	if comp.Workers != 1 || comp.SnapWindow != 5 {
		t.Errorf("runtime knobs not lowered: %d/%d", comp.Workers, comp.SnapWindow)
	}
	if comp.Policy.MaxAttempts != 5 || comp.Policy.Hedge {
		t.Errorf("policy not lowered: %+v", comp.Policy)
	}
	wantLimit := netsim.LimitConfig{Window: 24 * time.Hour, PerSource: 100, Capacity: 5000}
	if w.NSRateLimit != wantLimit {
		t.Errorf("rate limit %+v, want %+v", w.NSRateLimit, wantLimit)
	}
	if w.NotifiedLeaveRate != 0.9 || w.PaidPlanRate != 0.2 || w.DecoyOnLeaveRate != 0.1 {
		t.Errorf("world rates not lowered: %+v", w)
	}
	if w.PurgeDelayFree != 14*24*time.Hour || w.PurgeDelayPaid != 35*24*time.Hour {
		t.Errorf("purge delays not lowered: %v/%v", w.PurgeDelayFree, w.PurgeDelayPaid)
	}
	if w.Faults.LossRate != 0.01 || w.Faults.BurstRate != 0.002 ||
		w.Faults.BurstWindow != 3*time.Hour || w.Faults.FlakyRate != 0.005 {
		t.Errorf("faults not lowered: %+v", w.Faults)
	}
	wantWave := world.ChurnWave{StartDay: 2, Days: 4, LeaveMult: 5, JoinMult: 0.5}
	if len(w.Waves) != 1 || w.Waves[0] != wantWave {
		t.Errorf("waves not lowered: %+v", w.Waves)
	}
	wantAttack := &experiment.AttackLoad{Bots: 10, RequestsPerBot: 20, Amplification: 30, Resolvers: 4, StartWeek: 2}
	if comp.Attack == nil || *comp.Attack != *wantAttack {
		t.Errorf("attack not lowered: %+v", comp.Attack)
	}
	if comp.Info.Canonical == nil || comp.Info.Hash != comp.Spec.Hash {
		t.Errorf("provenance not wired: %+v", comp.Info)
	}
}
