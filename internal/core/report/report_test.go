package report

import (
	"strings"
	"testing"

	"rrdps/internal/core/behavior"
	"rrdps/internal/core/experiment"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/world"
)

func runCampaigns(t *testing.T) (experiment.DynamicsResult, experiment.ResidualResult) {
	t.Helper()
	cfg := world.PaperConfig(600)
	cfg.Seed = 83
	cfg.JoinRate = 0.01
	cfg.LeaveRate = 0.02
	cfg.PauseRate = 0.04
	cfg.SwitchRate = 0.01
	dynRes := experiment.Dynamics{World: world.New(cfg), Days: 10}.Run()

	cfg2 := world.PaperConfig(600)
	cfg2.Seed = 89
	cfg2.LeaveRate = 0.01
	cfg2.SwitchRate = 0.008
	resRes := experiment.Residual{World: world.New(cfg2), Weeks: 2}.Run()
	return dynRes, resRes
}

func TestTableII(t *testing.T) {
	s := TableII()
	for _, frag := range []string{"Cloudflare", "Incapsula", "residual", "AS13335", "incapdns", "NS / CNAME"} {
		if !strings.Contains(s, frag) {
			t.Errorf("TableII missing %q:\n%s", frag, s)
		}
	}
}

func TestDynamicsRenderers(t *testing.T) {
	dyn, _ := runCampaigns(t)

	fig2 := Figure2(dyn)
	for _, frag := range []string{"Fig. 2", "overall adoption", "cloudflare"} {
		if !strings.Contains(fig2, frag) {
			t.Errorf("Figure2 missing %q:\n%s", frag, fig2)
		}
	}

	fig3 := Figure3(dyn)
	for _, frag := range []string{"Fig. 3", "JOIN", "avg/day"} {
		if !strings.Contains(fig3, frag) {
			t.Errorf("Figure3 missing %q:\n%s", frag, fig3)
		}
	}

	fig5 := Figure5(dyn)
	for _, frag := range []string{"Fig. 5", "Overall", "longer than 5 days"} {
		if !strings.Contains(fig5, frag) {
			t.Errorf("Figure5 missing %q:\n%s", frag, fig5)
		}
	}

	fig6 := Figure6(dyn)
	if !strings.Contains(fig6, "NS-based") || !strings.Contains(fig6, "CNAME-based") {
		t.Errorf("Figure6 malformed:\n%s", fig6)
	}

	t5 := TableV(dyn)
	if !strings.Contains(t5, "Table V") || !strings.Contains(t5, "Total") {
		t.Errorf("TableV malformed:\n%s", t5)
	}
}

func TestResidualRenderers(t *testing.T) {
	_, res := runCampaigns(t)

	t6 := TableVI(res)
	for _, frag := range []string{"Table VI", "Cloudflare", "Incapsula", "Week 1", "Total"} {
		if !strings.Contains(t6, frag) {
			t.Errorf("TableVI missing %q:\n%s", frag, t6)
		}
	}

	f9 := Figure9(res)
	for _, frag := range []string{"Fig. 9", "Newly exposed", "every week"} {
		if !strings.Contains(f9, frag) {
			t.Errorf("Figure9 missing %q:\n%s", frag, f9)
		}
	}
}

func TestFigure7(t *testing.T) {
	s := Figure7(map[netsim.Region]uint64{
		netsim.RegionOregon: 10,
		netsim.RegionTokyo:  7,
	})
	for _, frag := range []string{"Fig. 7", "oregon", "tokyo", "10", "7"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Figure7 missing %q:\n%s", frag, s)
		}
	}
}

func TestPauseCDFSeries(t *testing.T) {
	dyn, _ := runCampaigns(t)
	overall, cf, inc := PauseCDF(dyn)
	if overall.Len() == 0 {
		t.Fatal("no pause windows in overall CDF")
	}
	if cf.Len()+inc.Len() > overall.Len() {
		t.Fatal("per-provider CDFs exceed overall")
	}
	if overall.At(35) != 1.0 {
		t.Fatalf("CDF at max = %v", overall.At(35))
	}
}

// TestPauseCDFExcludesCensored pins the censoring rule: windows opened at
// a baseline observation carry a lower-bound duration and must not enter
// the Fig. 5 duration statistics.
func TestPauseCDFExcludesCensored(t *testing.T) {
	res := experiment.DynamicsResult{
		Days: 10,
		PauseWindows: []behavior.PauseWindow{
			{Apex: "a.com", Provider: dps.Cloudflare, StartDay: 1, EndDay: 4,
				Resumed: true, ResumedAt: dps.Cloudflare},
			{Apex: "b.com", Provider: dps.Cloudflare, StartDay: 0, EndDay: 9,
				Resumed: true, ResumedAt: dps.Cloudflare, Censored: true},
		},
	}
	overall, cf, _ := PauseCDF(res)
	if overall.Len() != 1 || cf.Len() != 1 {
		t.Fatalf("CDF lengths = %d overall / %d cloudflare, want 1/1 (censored window leaked in)",
			overall.Len(), cf.Len())
	}
	if overall.At(3) != 1.0 {
		t.Fatalf("CDF at 3 days = %v, want 1.0 — only the measured 3-day window should count", overall.At(3))
	}
}

func TestObservabilityRendering(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("collect.domains").Add(600)
	r.Counter("scan.queries").Add(1200)
	r.VolatileCounter("dns.cache.hit").Add(42)
	r.Gauge("campaign.weeks").Set(6)
	r.Histogram("filter.hidden_per_apex").Observe(3)
	sp := r.Tracer().StartSpan("collect", "day 0")
	sp.SetItems(600)
	sp.End()

	text := Observability(r.Dump())
	for _, frag := range []string{
		"Observability summary", "Phase", "collect", "600",
		"scan.queries", "campaign.weeks", "filter.hidden_per_apex",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("Observability missing %q:\n%s", frag, text)
		}
	}
}

func TestDefinitionTables(t *testing.T) {
	t3 := TableIII()
	for _, frag := range []string{"Table III", "ON", "OFF", "NONE", "A-matched"} {
		if !strings.Contains(t3, frag) {
			t.Errorf("TableIII missing %q:\n%s", frag, t3)
		}
	}
	t4 := TableIV()
	for _, frag := range []string{"Table IV", "LEAVE", "JOIN", "PAUSE", "RESUME", "SWITCH", "NONE -> ON"} {
		if !strings.Contains(t4, frag) {
			t.Errorf("TableIV missing %q:\n%s", frag, t4)
		}
	}
}
