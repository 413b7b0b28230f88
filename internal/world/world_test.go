package world

import (
	"math/rand"
	"net/netip"
	"testing"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/website"
)

func smallConfig(n int) Config {
	cfg := PaperConfig(n)
	cfg.Seed = 7
	return cfg
}

func TestBuildDeterministic(t *testing.T) {
	a := New(smallConfig(200))
	b := New(smallConfig(200))
	sa, sb := a.Sites(), b.Sites()
	if len(sa) != len(sb) {
		t.Fatalf("site counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Domain() != sb[i].Domain() {
			t.Fatalf("site %d domain differs", i)
		}
		ka, _, _ := sa[i].Provider()
		kb, _, _ := sb[i].Provider()
		if ka != kb {
			t.Fatalf("site %d provider differs: %q vs %q", i, ka, kb)
		}
		if sa[i].OriginAddr() != sb[i].OriginAddr() {
			t.Fatalf("site %d origin differs", i)
		}
	}
	a.AdvanceDays(5)
	b.AdvanceDays(5)
	ea, eb := a.Events(), b.Events()
	if len(ea) != len(eb) {
		t.Fatalf("event logs differ in length: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestInitialAdoptionNearTarget(t *testing.T) {
	w := New(smallConfig(3000))
	adopted := 0
	for _, s := range w.Sites() {
		if key, _, _ := s.Provider(); key != "" {
			adopted++
		}
	}
	rate := float64(adopted) / 3000
	if rate < 0.10 || rate > 0.20 {
		t.Fatalf("adoption rate = %.3f, want ~0.1485", rate)
	}
}

func TestCloudflareDominatesShares(t *testing.T) {
	w := New(smallConfig(3000))
	counts := make(map[dps.ProviderKey]int)
	total := 0
	for _, s := range w.Sites() {
		if key, _, _ := s.Provider(); key != "" {
			counts[key]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no adopters")
	}
	cf := float64(counts[dps.Cloudflare]) / float64(total)
	if cf < 0.70 || cf > 0.88 {
		t.Fatalf("cloudflare share = %.3f, want ~0.79", cf)
	}
}

func TestResolveUnprotectedSiteEndToEnd(t *testing.T) {
	w := New(smallConfig(200))
	res := w.NewResolver(netsim.RegionOregon)
	var target *website.Site
	for _, s := range w.Sites() {
		if key, _, _ := s.Provider(); key == "" {
			target = s
			break
		}
	}
	if target == nil {
		t.Skip("no unprotected site in sample")
	}
	got, err := res.Resolve(target.WWW(), dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("resolve %s: %v", target.WWW(), err)
	}
	addrs := got.Addrs()
	if len(addrs) != 1 || addrs[0] != target.OriginAddr() {
		t.Fatalf("resolved %v, want origin %v", addrs, target.OriginAddr())
	}
}

func findSite(w *World, key dps.ProviderKey, method dps.Rerouting) *website.Site {
	for _, s := range w.Sites() {
		k, m, _ := s.Provider()
		if k == key && m == method {
			return s
		}
	}
	return nil
}

func TestResolveNSProtectedSiteEndToEnd(t *testing.T) {
	w := New(smallConfig(400))
	res := w.NewResolver(netsim.RegionLondon)
	site := findSite(w, dps.Cloudflare, dps.ReroutingNS)
	if site == nil {
		t.Fatal("no cloudflare NS site in sample")
	}
	got, err := res.Resolve(site.WWW(), dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	addrs := got.Addrs()
	if len(addrs) != 1 {
		t.Fatalf("addrs = %v", addrs)
	}
	asn, ok := w.Registry.ASNFor(addrs[0])
	if !ok || asn != 13335 {
		t.Fatalf("resolved %v in %v, want Cloudflare AS13335", addrs[0], asn)
	}
	// NS records point at cloudflare hosts.
	nsRes, err := res.Resolve(site.Domain().Apex, dnsmsg.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	hosts := nsRes.NSHosts()
	if len(hosts) == 0 || !hosts[0].ContainsSubstring("cloudflare") {
		t.Fatalf("NS hosts = %v", hosts)
	}
}

func TestResolveCNAMEProtectedSiteEndToEnd(t *testing.T) {
	w := New(smallConfig(1500))
	res := w.NewResolver(netsim.RegionSingapore)
	site := findSite(w, dps.Incapsula, dps.ReroutingCNAME)
	if site == nil {
		t.Skip("no incapsula site in sample")
	}
	got, err := res.Resolve(site.WWW(), dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	targets := got.CNAMETargets()
	if len(targets) != 1 || !targets[0].ContainsSubstring("incapdns") {
		t.Fatalf("chain = %v", targets)
	}
	addrs := got.Addrs()
	if len(addrs) != 1 || !w.Registry.Contains(19551, addrs[0]) {
		t.Fatalf("addrs = %v, want Incapsula edge", addrs)
	}
}

func TestPausedSiteResolvesToOrigin(t *testing.T) {
	w := New(smallConfig(400))
	site := findSite(w, dps.Cloudflare, dps.ReroutingNS)
	if site == nil {
		t.Fatal("no cloudflare NS site")
	}
	if err := site.Pause(); err != nil {
		t.Fatal(err)
	}
	res := w.NewResolver(netsim.RegionOregon)
	got, err := res.Resolve(site.WWW(), dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if addrs := got.Addrs(); len(addrs) != 1 || addrs[0] != site.OriginAddr() {
		t.Fatalf("paused resolution = %v, want origin %v", addrs, site.OriginAddr())
	}
}

// TestResidualResolutionEndToEnd drives the full attack: a Cloudflare NS
// customer switches to Incapsula; public resolution now shows Incapsula,
// but querying the old Cloudflare nameserver directly still yields the
// origin address.
func TestResidualResolutionEndToEnd(t *testing.T) {
	w := New(smallConfig(400))
	site := findSite(w, dps.Cloudflare, dps.ReroutingNS)
	if site == nil {
		t.Fatal("no cloudflare NS site")
	}
	origin := site.OriginAddr()
	if err := site.Switch(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree, true); err != nil {
		t.Fatal(err)
	}

	// Public view: Incapsula.
	res := w.NewResolver(netsim.RegionOregon)
	got, err := res.Resolve(site.WWW(), dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if addrs := got.Addrs(); len(addrs) != 1 || !w.Registry.Contains(19551, addrs[0]) {
		t.Fatalf("public resolution = %v, want Incapsula edge", addrs)
	}

	// Attacker view: query a Cloudflare pool nameserver directly.
	cf, _ := w.Provider(dps.Cloudflare)
	pool := cf.NSPool()
	addr, _ := cf.NSPoolAddr(pool[0])
	client := dnsresolver.NewClient(w.Net, netip.MustParseAddr("198.51.100.66"), netsim.RegionTokyo, rand.New(rand.NewSource(1)))
	resp, err := client.Exchange(addr, site.WWW(), dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("direct query: %v", err)
	}
	as := resp.AnswersOfType(dnsmsg.TypeA)
	if len(as) != 1 || as[0].Data.(dnsmsg.AData).Addr != origin {
		t.Fatalf("residual answer = %v, want origin %v", as, origin)
	}
}

func TestAdvanceDayGeneratesEvents(t *testing.T) {
	cfg := smallConfig(800)
	// Crank rates up so a short run produces every behaviour.
	cfg.JoinRate = 0.02
	cfg.LeaveRate = 0.03
	cfg.PauseRate = 0.05
	cfg.SwitchRate = 0.02
	w := New(cfg)
	w.AdvanceDays(20)

	kinds := make(map[BehaviorKind]int)
	for _, e := range w.Events() {
		kinds[e.Kind]++
	}
	for _, k := range []BehaviorKind{BehaviorJoin, BehaviorLeave, BehaviorPause, BehaviorResume, BehaviorSwitch} {
		if kinds[k] == 0 {
			t.Errorf("no %s events in 20 days (got %v)", k, kinds)
		}
	}
	if w.Day() != 20 {
		t.Fatalf("Day = %d", w.Day())
	}
}

func TestEventsConsistentWithState(t *testing.T) {
	cfg := smallConfig(500)
	cfg.LeaveRate = 0.05
	w := New(cfg)
	w.AdvanceDays(10)
	for _, e := range w.EventsOfKind(BehaviorLeave) {
		site, ok := w.Site(e.Apex)
		if !ok {
			t.Fatalf("event for unknown site %s", e.Apex)
		}
		_ = site
		if e.From == "" {
			t.Fatalf("LEAVE event without From: %+v", e)
		}
	}
	for _, e := range w.EventsOfKind(BehaviorSwitch) {
		if e.From == "" || e.To == "" || e.From == e.To {
			t.Fatalf("bad SWITCH event: %+v", e)
		}
	}
}

func TestPauseEventuallyResumes(t *testing.T) {
	cfg := smallConfig(500)
	cfg.PauseRate = 0.08
	cfg.LeaveRate = 0 // isolate pause/resume
	cfg.SwitchRate = 0
	cfg.JoinRate = 0
	w := New(cfg)
	w.AdvanceDays(50)
	pauses := len(w.EventsOfKind(BehaviorPause))
	resumes := len(w.EventsOfKind(BehaviorResume))
	if pauses == 0 {
		t.Fatal("no pauses generated")
	}
	if resumes == 0 || resumes > pauses {
		t.Fatalf("resumes = %d, pauses = %d", resumes, pauses)
	}
}

func TestCloudflareNSShareWithinCustomers(t *testing.T) {
	w := New(smallConfig(3000))
	ns, cname := 0, 0
	for _, s := range w.Sites() {
		key, method, _ := s.Provider()
		if key != dps.Cloudflare {
			continue
		}
		switch method {
		case dps.ReroutingNS:
			ns++
		case dps.ReroutingCNAME:
			cname++
		}
	}
	if ns+cname == 0 {
		t.Fatal("no cloudflare customers")
	}
	share := float64(ns) / float64(ns+cname)
	if share < 0.80 || share > 0.97 {
		t.Fatalf("NS share = %.3f, want ~0.90", share)
	}
}

func TestIPChangeHygieneRecorded(t *testing.T) {
	cfg := smallConfig(600)
	cfg.JoinRate = 0.05
	w := New(cfg)
	w.AdvanceDays(15)
	joins := len(w.EventsOfKind(BehaviorJoin))
	changes := len(w.EventsOfKind(BehaviorIPChange))
	if joins < 20 {
		t.Fatalf("too few joins to assess hygiene: %d", joins)
	}
	ratio := float64(changes) / float64(joins)
	// Overall unchanged rate ~58.6% -> change rate ~41.4%.
	if ratio < 0.2 || ratio > 0.65 {
		t.Fatalf("IP-change ratio = %.3f (%d/%d), want ~0.41", ratio, changes, joins)
	}
}

// EventsOfKind filters the event log.
func (w *World) EventsOfKind(kind BehaviorKind) []Event {
	var out []Event
	for _, e := range w.events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}
