package experiment

import (
	"reflect"
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

	aw, ah, av := a.CFExposure.WeeklyCounts()
	bw, bh, bv := b.CFExposure.WeeklyCounts()
	if !reflect.DeepEqual(aw, bw) || !reflect.DeepEqual(ah, bh) || !reflect.DeepEqual(av, bv) {
		t.Fatal("weekly counts differ between identical campaigns")
	}
	if !reflect.DeepEqual(a.CFExposure.ExposedApexes(), b.CFExposure.ExposedApexes()) {
		t.Fatal("exposed apex sets differ")
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
	sw, sh, sv := serial.CFExposure.WeeklyCounts()
	pw, ph, pv := parallel.CFExposure.WeeklyCounts()
	if !reflect.DeepEqual(sw, pw) || !reflect.DeepEqual(sh, ph) || !reflect.DeepEqual(sv, pv) {
		t.Fatal("CF weekly counts differ between serial and parallel campaigns")
	}
	if !reflect.DeepEqual(serial.CFExposure.ExposedApexes(), parallel.CFExposure.ExposedApexes()) {
		t.Fatal("CF exposed apex sets differ")
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
