package multicdn_test

import (
	"slices"
	"testing"

	"rrdps/internal/core/experiment"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/netsim"
	"rrdps/internal/snapdisk"
	"rrdps/internal/world"
)

func multiCDNWorld(t *testing.T, n int) *world.World {
	t.Helper()
	cfg := world.PaperConfig(n)
	cfg.Seed = 55
	cfg.MultiCDNRate = 0.10 // dense for testing
	// Freeze normal churn so only the front-end moves things.
	cfg.JoinRate, cfg.LeaveRate, cfg.PauseRate, cfg.SwitchRate = 0, 0, 0, 0
	cfg.UnprotectedIPChangeRate = 0
	return world.New(cfg)
}

func TestEnrollmentAndResolution(t *testing.T) {
	w := multiCDNWorld(t, 200)
	domains := w.MultiCDNDomains()
	if len(domains) == 0 {
		t.Fatal("no multi-CDN customers generated")
	}
	res := w.NewResolver(netsim.RegionOregon)
	site, _ := w.Site(domains[0])
	got, err := res.Resolve(site.WWW(), dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	targets := got.CNAMETargets()
	if len(targets) < 2 {
		t.Fatalf("chain = %v, want front-end alias plus provider target", targets)
	}
	if !targets[0].ContainsSubstring("cedexis") {
		t.Fatalf("first target = %v, want cedexis alias", targets[0])
	}
	if len(got.Addrs()) == 0 {
		t.Fatal("no final address through the front-end")
	}
}

func TestFlippingChangesProvider(t *testing.T) {
	w := multiCDNWorld(t, 300)
	domains := w.MultiCDNDomains()
	if len(domains) < 3 {
		t.Fatalf("only %d multi-CDN customers", len(domains))
	}
	// Track resolved providers across days; at least one site must flap.
	seen := make(map[dnsmsg.Name]map[string]bool)
	for day := 0; day < 6; day++ {
		res := w.NewResolver(netsim.RegionOregon)
		for _, apex := range domains {
			site, _ := w.Site(apex)
			got, err := res.Resolve(site.WWW(), dnsmsg.TypeA)
			if err != nil {
				t.Fatalf("resolve %s: %v", apex, err)
			}
			for _, target := range got.CNAMETargets() {
				switch {
				case target.ContainsSubstring("fastly"):
					record(seen, apex, "fastly")
				case target.ContainsSubstring("cloudfront"):
					record(seen, apex, "cloudfront")
				}
			}
		}
		w.AdvanceDay()
	}
	flapped := 0
	for _, provs := range seen {
		if len(provs) > 1 {
			flapped++
		}
	}
	if flapped == 0 {
		t.Fatal("no multi-CDN site flapped providers over six days")
	}
}

func record(m map[dnsmsg.Name]map[string]bool, apex dnsmsg.Name, prov string) {
	if m[apex] == nil {
		m[apex] = make(map[string]bool)
	}
	m[apex][prov] = true
}

// TestDynamicsExcludesMultiCDN: the front-end customers, whose daily
// flapping would read as a storm of SWITCH detections, are detected on
// the first day and excluded from the behaviour FSM — exactly the
// world's multi-CDN set — so with other churn frozen the campaign is
// quiet.
func TestDynamicsExcludesMultiCDN(t *testing.T) {
	w := multiCDNWorld(t, 250)
	want := slices.Clone(w.MultiCDNDomains())
	slices.Sort(want)
	dir := t.TempDir()
	res := experiment.Dynamics{World: w, Days: 8, CheckpointDir: dir}.Run()
	if len(res.Detections) != 0 {
		t.Fatalf("auto-exclusion left %d detections: %+v", len(res.Detections), res.Detections)
	}

	d, err := snapdisk.OpenDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, blob, ok, err := d.Recover(0)
	if err != nil || !ok {
		t.Fatalf("Recover: ok=%v err=%v", ok, err)
	}
	cs, err := experiment.DecodeCampaignState(blob)
	if err != nil {
		t.Fatal(err)
	}
	excluded := cs.Dynamics.Tracker.Excluded
	if len(excluded) == 0 {
		t.Fatal("no multi-CDN customer was excluded; test cannot discriminate")
	}
	if !slices.Equal(excluded, want) {
		t.Fatalf("excluded %v, want the world's multi-CDN set %v", excluded, want)
	}
}

func TestCurrentTargetAccessor(t *testing.T) {
	w := multiCDNWorld(t, 200)
	domains := w.MultiCDNDomains()
	if len(domains) == 0 {
		t.Skip("no multi-CDN customers")
	}
	// Reach into the world-built manager indirectly: resolve and compare.
	res := w.NewResolver(netsim.RegionLondon)
	site, _ := w.Site(domains[0])
	got, err := res.Resolve(site.WWW(), dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	targets := got.CNAMETargets()
	last := targets[len(targets)-1]
	if !last.ContainsSubstring("fastly") && !last.ContainsSubstring("cloudfront") {
		t.Fatalf("final target %v not from the CDN pool", last)
	}
}
