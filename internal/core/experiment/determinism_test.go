package experiment

import (
	"reflect"
	"rrdps/internal/core/exposure"
	"testing"

	"rrdps/internal/netsim"
	"rrdps/internal/world"
)

// faultPlan is a seeded fault plan: loss and corruption are pure
// content hashes of (seed, endpoint, sim time, payload), so every run
// of a campaign hits the same faults and retries the same queries.
var faultPlan = netsim.FaultConfig{Seed: 431, LossRate: 0.02, CorruptRate: 0.02}

// TestDynamicsFullyDeterministic: two campaigns on identically seeded
// worlds produce byte-identical results, with and without a fault plan.
func TestDynamicsFullyDeterministic(t *testing.T) {
	build := func() *world.World {
		cfg := world.PaperConfig(500)
		cfg.Seed = 909
		cfg.JoinRate = 0.01
		cfg.LeaveRate = 0.02
		cfg.PauseRate = 0.03
		cfg.SwitchRate = 0.01
		return world.New(cfg)
	}
	a := Dynamics{World: build(), Days: 8}.Run()
	b := Dynamics{World: build(), Days: 8}.Run()

	if !reflect.DeepEqual(a.Detections, b.Detections) {
		t.Fatal("detections differ between identical campaigns")
	}
	if !reflect.DeepEqual(a.PauseWindows, b.PauseWindows) {
		t.Fatal("pause windows differ")
	}
	if !reflect.DeepEqual(a.CountsByDay, b.CountsByDay) {
		t.Fatal("daily counts differ")
	}
	if !reflect.DeepEqual(a.Unchanged, b.Unchanged) {
		t.Fatal("Table V data differs")
	}

	faulty := func() DynamicsResult {
		cfg := world.PaperConfig(240)
		cfg.Seed = 4301
		cfg.JoinRate = 0.01
		cfg.LeaveRate = 0.02
		cfg.PauseRate = 0.04
		cfg.SwitchRate = 0.01
		cfg.Faults = faultPlan
		return Dynamics{World: world.New(cfg), Days: 5}.Run()
	}
	fa := faulty()
	if fa.Stats.Retries == 0 {
		t.Fatalf("fault plan produced no retries: %v", fa.Stats)
	}
	diffResults(t, fa, faulty())
}

// TestResidualFullyDeterministic: the §V campaign is likewise a pure
// function of its configuration, fault plan included.
func TestResidualFullyDeterministic(t *testing.T) {
	build := func() *world.World {
		return world.New(countermeasureConfig(911))
	}
	a := Residual{World: build(), Weeks: 2, WarmupDays: 14}.Run()
	b := Residual{World: build(), Weeks: 2, WarmupDays: 14}.Run()

	if !reflect.DeepEqual(exportWeeks(a.CFExposure), exportWeeks(b.CFExposure)) {
		t.Fatal("weekly hidden or verified sets differ between identical campaigns")
	}
	for i := range a.Cloudflare {
		if !reflect.DeepEqual(a.Cloudflare[i].Report.Hidden, b.Cloudflare[i].Report.Hidden) {
			t.Fatalf("week %d hidden records differ", i+1)
		}
	}

	faulty := func() ResidualResult {
		cfg := world.PaperConfig(280)
		cfg.Seed = 4401
		cfg.LeaveRate = 0.01
		cfg.SwitchRate = 0.008
		cfg.JoinRate = 0.002
		cfg.Faults = faultPlan
		return Residual{World: world.New(cfg), Weeks: 2, WarmupDays: 7, IncapsulaStartWeek: 1}.Run()
	}
	fa := faulty()
	if fa.Stats.Retries == 0 {
		t.Fatalf("fault plan produced no retries: %v", fa.Stats)
	}
	diffResults(t, fa, faulty())
}

// TestResidualParallelMatchesSerial: the whole §V campaign with eight
// workers on every loop produces the same artifacts as the serial run —
// the end-to-end determinism guarantee the per-package tests check in
// isolation.
func TestResidualParallelMatchesSerial(t *testing.T) {
	build := func() *world.World {
		return world.New(countermeasureConfig(913))
	}
	serial := Residual{World: build(), Weeks: 2, WarmupDays: 14}.Run()
	parallel := Residual{World: build(), Weeks: 2, WarmupDays: 14, Workers: 8}.Run()

	if serial.NameserverCount != parallel.NameserverCount {
		t.Fatalf("nameserver counts differ: serial %d, parallel %d",
			serial.NameserverCount, parallel.NameserverCount)
	}
	if !reflect.DeepEqual(exportWeeks(serial.CFExposure), exportWeeks(parallel.CFExposure)) {
		t.Fatal("CF weekly hidden or verified sets differ between serial and parallel campaigns")
	}
	if len(serial.Incapsula) != len(parallel.Incapsula) {
		t.Fatalf("incapsula week counts differ: serial %d, parallel %d",
			len(serial.Incapsula), len(parallel.Incapsula))
	}
	for i := range serial.Cloudflare {
		if !reflect.DeepEqual(serial.Cloudflare[i].Report, parallel.Cloudflare[i].Report) {
			t.Fatalf("CF week %d report differs between serial and parallel", i+1)
		}
	}
	for i := range serial.Incapsula {
		if !reflect.DeepEqual(serial.Incapsula[i].Report, parallel.Incapsula[i].Report) {
			t.Fatalf("incapsula week %d report differs between serial and parallel", i+1)
		}
	}
}

// TestDynamicsParallelMatchesSerial covers the §IV campaign's parallel
// collection path the same way.
func TestDynamicsParallelMatchesSerial(t *testing.T) {
	build := func() *world.World {
		cfg := world.PaperConfig(500)
		cfg.Seed = 909
		cfg.JoinRate = 0.01
		cfg.LeaveRate = 0.02
		cfg.PauseRate = 0.03
		cfg.SwitchRate = 0.01
		return world.New(cfg)
	}
	serial := Dynamics{World: build(), Days: 8}.Run()
	parallel := Dynamics{World: build(), Days: 8, Workers: 8}.Run()

	if !reflect.DeepEqual(serial.Detections, parallel.Detections) {
		t.Fatal("detections differ between serial and parallel campaigns")
	}
	if !reflect.DeepEqual(serial.PauseWindows, parallel.PauseWindows) {
		t.Fatal("pause windows differ")
	}
	if !reflect.DeepEqual(serial.CountsByDay, parallel.CountsByDay) {
		t.Fatal("daily counts differ")
	}
	if !reflect.DeepEqual(serial.Unchanged, parallel.Unchanged) {
		t.Fatal("Table V data differs")
	}
	if !reflect.DeepEqual(serial.Breakdowns, parallel.Breakdowns) {
		t.Fatal("adoption breakdowns differ")
	}
}

// exportWeeks is every week of tr as ExportWeek exports it: the sorted
// hidden and verified sets, in week order.
func exportWeeks(tr *exposure.Tracker) []exposure.WeekState {
	out := make([]exposure.WeekState, tr.Weeks())
	for i := range out {
		out[i] = tr.ExportWeek(i)
	}
	return out
}
