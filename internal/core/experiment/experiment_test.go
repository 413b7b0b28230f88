package experiment

import (
	"strings"
	"testing"

	"rrdps/internal/core/behavior"
	"rrdps/internal/dps"
	"rrdps/internal/world"
)

func dynamicsWorld(n int, seed int64) *world.World {
	return world.New(dynamicsConfig(n, seed))
}

// dynamicsConfig is a world config with boosted churn so short runs
// produce every behaviour.
func dynamicsConfig(n int, seed int64) world.Config {
	cfg := world.PaperConfig(n)
	cfg.Seed = seed
	cfg.JoinRate = 0.01
	cfg.LeaveRate = 0.02
	cfg.PauseRate = 0.04
	cfg.SwitchRate = 0.01
	return cfg
}

func truthCounts(w *world.World, maxDay int) map[world.BehaviorKind]int {
	out := make(map[world.BehaviorKind]int)
	for _, e := range w.Events() {
		if e.Day <= maxDay {
			out[e.Kind]++
		}
	}
	return out
}

func TestDynamicsDetectsGroundTruth(t *testing.T) {
	w := dynamicsWorld(800, 41)
	const days = 12
	res := Dynamics{World: w, Days: days}.Run()

	// Events on days 0..days-2 are visible to snapshots 1..days-1.
	truth := truthCounts(w, days-2)
	detected := map[world.BehaviorKind]int{}
	for _, d := range res.Detections {
		switch d.Kind {
		case behavior.Join:
			detected[world.BehaviorJoin]++
		case behavior.Leave:
			detected[world.BehaviorLeave]++
		case behavior.Pause:
			detected[world.BehaviorPause]++
		case behavior.Resume:
			detected[world.BehaviorResume]++
		case behavior.Switch:
			detected[world.BehaviorSwitch]++
		}
	}
	for _, kind := range []world.BehaviorKind{
		world.BehaviorJoin, world.BehaviorLeave, world.BehaviorPause,
		world.BehaviorResume, world.BehaviorSwitch,
	} {
		if truth[kind] == 0 {
			continue // not enough churn for this kind in a short run
		}
		got, want := detected[kind], truth[kind]
		if got < want-2 || got > want+2 {
			t.Errorf("%s: detected %d, ground truth %d (truth=%v, detected=%v)",
				kind, got, want, truth, detected)
		}
	}
}

func TestDynamicsAdoptionBreakdown(t *testing.T) {
	w := dynamicsWorld(1500, 43)
	res := Dynamics{World: w, Days: 3}.Run()
	rate := res.AvgAdoptionRate()
	if rate < 0.10 || rate > 0.22 {
		t.Fatalf("avg adoption = %.3f", rate)
	}
	top := res.AvgTopAdoptionRate()
	if top <= rate {
		t.Fatalf("top-bucket adoption %.3f not above overall %.3f", top, rate)
	}
	cf := res.AvgProviderShare(dps.Cloudflare)
	if cf < 0.7 || cf > 0.9 {
		t.Fatalf("cloudflare share = %.3f", cf)
	}
	if inc := res.AvgProviderShare(dps.Incapsula); inc >= cf {
		t.Fatalf("incapsula share %.3f >= cloudflare %.3f", inc, cf)
	}
}

func TestDynamicsPauseWindows(t *testing.T) {
	w := dynamicsWorld(800, 47)
	res := Dynamics{World: w, Days: 25}.Run()
	if len(res.PauseWindows) == 0 {
		t.Fatal("no pause windows detected")
	}
	for _, win := range res.PauseWindows {
		if win.Days() <= 0 {
			t.Fatalf("non-positive pause window: %+v", win)
		}
		if !pauseCapableProvider(win.Provider) {
			t.Fatalf("pause window at non-pause-capable provider: %+v", win)
		}
	}
}

func pauseCapableProvider(key dps.ProviderKey) bool {
	return key == dps.Cloudflare || key == dps.Incapsula
}

func TestDynamicsUnchangedRates(t *testing.T) {
	w := dynamicsWorld(1200, 53)
	res := Dynamics{World: w, Days: 15}.Run()
	jr, un, rate := res.TotalUnchangedRate()
	if jr < 30 {
		t.Fatalf("too few join/resume samples: %d", jr)
	}
	if un == 0 || un > jr {
		t.Fatalf("unchanged = %d of %d", un, jr)
	}
	// Ground truth unchanged ~58.6%; HTML verification is a lower bound
	// (restricted origins, dynamic meta eat some), so allow a wide band
	// below the truth but demand the ordering signal survives.
	if rate < 0.25 || rate > 0.75 {
		t.Fatalf("unchanged rate = %.3f (%d/%d)", rate, un, jr)
	}
}

func TestDynamicsSummaryString(t *testing.T) {
	w := dynamicsWorld(300, 59)
	res := Dynamics{World: w, Days: 4}.Run()
	if s := res.String(); !strings.Contains(s, "dynamics:") {
		t.Fatalf("String() = %q", s)
	}
}

func residualWorld(n int, seed int64) *world.World {
	return world.New(residualConfig(n, seed))
}

func residualConfig(n int, seed int64) world.Config {
	cfg := world.PaperConfig(n)
	cfg.Seed = seed
	// Boost churn so a few weeks produce leaves and switches.
	cfg.LeaveRate = 0.01
	cfg.SwitchRate = 0.008
	cfg.JoinRate = 0.002
	return cfg
}

func TestResidualCampaign(t *testing.T) {
	w := residualWorld(1500, 61)
	res := Residual{World: w, Weeks: 4}.Run()

	if res.NameserverCount == 0 {
		t.Fatal("no cloudflare nameservers discovered")
	}
	if len(res.Cloudflare) != 4 || len(res.Incapsula) != 4 {
		t.Fatalf("weekly reports: cf=%d inc=%d", len(res.Cloudflare), len(res.Incapsula))
	}

	ch, _ := res.TotalHidden()
	cv, _ := res.TotalVerified()
	if ch == 0 {
		t.Fatal("no cloudflare hidden records despite churn")
	}
	if cv > ch {
		t.Fatalf("verified %d > hidden %d", cv, ch)
	}
	// Week 1 scans a fresh world: hidden records accumulate over weeks as
	// churn creates terminated customers.
	firstWeek := len(res.Cloudflare[0].Report.HiddenApexes())
	lastWeek := len(res.Cloudflare[3].Report.HiddenApexes())
	if lastWeek < firstWeek {
		t.Logf("hidden records decreased %d -> %d (purge can cause this)", firstWeek, lastWeek)
	}
}

func TestResidualCloudflareDwarfsIncapsula(t *testing.T) {
	w := residualWorld(2500, 67)
	res := Residual{World: w, Weeks: 3}.Run()
	ch, ih := res.TotalHidden()
	if ch == 0 {
		t.Fatal("no cloudflare hidden records")
	}
	// Table VI shape: Cloudflare's hidden-record count dwarfs Incapsula's
	// (3,504 vs 42 in the paper), mostly a function of market share.
	if ih > ch {
		t.Fatalf("incapsula hidden (%d) exceeds cloudflare (%d)", ih, ch)
	}
}

func TestResidualIncapsulaStartWeek(t *testing.T) {
	w := residualWorld(600, 71)
	res := Residual{World: w, Weeks: 4, IncapsulaStartWeek: 2}.Run()
	// Start-at-week-2 over 4 weeks tracks weeks 2, 3, 4 — the start week
	// itself is included (the old `week >` comparison skipped it).
	if len(res.Incapsula) != 3 {
		t.Fatalf("incapsula weeks = %d, want 3", len(res.Incapsula))
	}
	if len(res.Cloudflare) != 4 {
		t.Fatalf("cloudflare weeks = %d, want 4", len(res.Cloudflare))
	}
}

// TestResidualWeekNumbering pins the week indices of both case studies:
// Cloudflare reports carry weeks 1..Weeks, the delayed Incapsula reports
// carry IncapsulaStartWeek..Weeks — the same numbering, not a rebased
// one — and each exposure tracker saw exactly those weeks. This is the
// Cloudflare/Incapsula week-index handoff ISSUE 3 asks to pin, and it
// also exercises exposure.Tracker.AddWeek's strictly-increasing
// contract for a tracker whose first week is > 1.
func TestResidualWeekNumbering(t *testing.T) {
	w := residualWorld(600, 71)
	res := Residual{World: w, Weeks: 5, IncapsulaStartWeek: 3}.Run()
	for i, wr := range res.Cloudflare {
		if wr.Week != i+1 {
			t.Fatalf("cloudflare report %d has week %d, want %d", i, wr.Week, i+1)
		}
	}
	if len(res.Incapsula) != 3 {
		t.Fatalf("incapsula weeks = %d, want 3", len(res.Incapsula))
	}
	for i, wr := range res.Incapsula {
		if want := i + 3; wr.Week != want {
			t.Fatalf("incapsula report %d has week %d, want %d", i, wr.Week, want)
		}
	}
	if got := exportWeeks(res.CFExposure); len(got) != 5 || got[0].Week != 1 || got[4].Week != 5 {
		t.Fatalf("cloudflare tracker weeks = %v", got)
	}
	if got := exportWeeks(res.IncExposure); len(got) != 3 || got[0].Week != 3 || got[2].Week != 5 {
		t.Fatalf("incapsula tracker weeks = %v", got)
	}
}

func TestResidualSummaryString(t *testing.T) {
	w := residualWorld(300, 73)
	res := Residual{World: w, Weeks: 1}.Run()
	if s := res.String(); !strings.Contains(s, "residual:") {
		t.Fatalf("String() = %q", s)
	}
}

// TestAdoptionGrowsOverCampaign mirrors the paper's +1.17% six-week
// growth: with JOIN outpacing LEAVE, adoption rises over the campaign.
func TestAdoptionGrowsOverCampaign(t *testing.T) {
	cfg := world.PaperConfig(2000)
	cfg.Seed = 991
	// Keep the paper's J>L ratio but scaled up for a short run.
	cfg.JoinRate = 0.004
	cfg.LeaveRate = 0.008 // leave pool is ~5.7x smaller, so joins dominate
	cfg.PauseRate = 0
	cfg.SwitchRate = 0
	res := Dynamics{World: world.New(cfg), Days: 15}.Run()
	if growth := res.AdoptionGrowth(); growth <= 0 {
		t.Fatalf("adoption growth = %+.4f, want positive", growth)
	}
}
