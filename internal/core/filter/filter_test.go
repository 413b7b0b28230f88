package filter

import (
	"net/netip"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/website"
	"rrdps/internal/world"
)

type fixture struct {
	w        *world.World
	resolver *dnsresolver.Resolver
	matcher  *match.Matcher
	pipeline *Pipeline
	scanner  *rrscan.Scanner
	nsAddrs  []netip.Addr
	domains  []alexa.Domain
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	cfg := world.PaperConfig(n)
	cfg.Seed = 31
	cfg.OriginRestrictedRate = 0
	cfg.DynamicMetaRate = 0
	w := world.New(cfg)

	f := &fixture{
		w:        w,
		resolver: w.NewResolver(netsim.RegionOregon),
		matcher:  match.New(w.Registry, dps.Profiles()),
	}
	verifier := htmlverify.New(w.NewHTTPClient(netsim.RegionOregon))
	f.pipeline = New(f.matcher, f.resolver, verifier)

	for _, s := range w.Sites() {
		f.domains = append(f.domains, s.Domain())
	}
	var vantage []*dnsresolver.Client
	for _, region := range netsim.VantageRegions() {
		vantage = append(vantage, w.NewResolver(region).Client())
	}
	f.scanner = rrscan.NewScanner(vantage)

	profile, _ := dps.ProfileFor(dps.Cloudflare)
	discovery := rrscan.NewNameserverDiscovery(profile)
	collect.New(f.resolver, f.domains).CollectStream(0, discovery.AddRecord)
	_, f.nsAddrs = discovery.Resolve(f.resolver)
	if len(f.nsAddrs) == 0 {
		t.Fatal("no cloudflare nameservers discovered")
	}
	return f
}

func (f *fixture) cfNSSites(t *testing.T, min int) []*website.Site {
	t.Helper()
	var out []*website.Site
	for _, s := range f.w.Sites() {
		k, m, _ := s.Provider()
		if k == dps.Cloudflare && m == dps.ReroutingNS {
			out = append(out, s)
		}
	}
	if len(out) < min {
		t.Fatalf("need ≥%d cloudflare NS sites, have %d", min, len(out))
	}
	return out
}

func (f *fixture) scanAndFilter() Report {
	f.resolver.PurgeCache()
	scanned := f.scanner.ScanDirect(f.nsAddrs, f.domains)
	return f.pipeline.Run(dps.Cloudflare, scanned)
}

func TestAllActiveNothingHidden(t *testing.T) {
	f := newFixture(t, 250)
	rep := f.scanAndFilter()
	if len(rep.Hidden) != 0 {
		t.Fatalf("hidden = %v on a fully active population", rep.Hidden)
	}
	if rep.DroppedByIPFilter == 0 {
		t.Fatal("IP filter dropped nothing; active edges should be dropped")
	}
}

// TestSwitchedSiteIsVerifiedExposure is the paper's headline case: the old
// provider leaks an origin that is still live behind the new provider.
func TestSwitchedSiteIsVerifiedExposure(t *testing.T) {
	f := newFixture(t, 250)
	victim := f.cfNSSites(t, 1)[0]
	origin := victim.OriginAddr()
	if err := victim.Switch(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree, true); err != nil {
		t.Fatal(err)
	}

	rep := f.scanAndFilter()
	if len(rep.Hidden) != 1 || rep.Hidden[0].Apex != victim.Domain().Apex || rep.Hidden[0].Addr != origin {
		t.Fatalf("hidden = %+v, want victim origin", rep.Hidden)
	}
	verified := rep.VerifiedOrigins()
	if len(verified) != 1 || verified[0].Addr != origin {
		t.Fatalf("verified = %+v", verified)
	}
	if got := rep.VerifiedApexes(); len(got) != 1 || got[0] != victim.Domain().Apex {
		t.Fatalf("verified apexes = %v", got)
	}
}

// TestLeaverReturningToSelfHostingIsNotHidden: after a plain LEAVE, the
// residual answer equals the public answer, so the A-matching filter
// removes it — no hidden record.
func TestLeaverReturningToSelfHostingIsNotHidden(t *testing.T) {
	f := newFixture(t, 250)
	victim := f.cfNSSites(t, 2)[1]
	if err := victim.Leave(true); err != nil {
		t.Fatal(err)
	}
	rep := f.scanAndFilter()
	for _, h := range rep.Hidden {
		if h.Apex == victim.Domain().Apex {
			t.Fatalf("leaver with public origin flagged hidden: %+v", h)
		}
	}
}

// TestLeaverWithChangedIPIsHiddenButUnverified: the old provider leaks a
// stale origin address that no longer serves the site.
func TestLeaverWithChangedIPIsHiddenButUnverified(t *testing.T) {
	f := newFixture(t, 250)
	victim := f.cfNSSites(t, 3)[2]
	oldOrigin := victim.OriginAddr()
	if err := victim.Leave(true); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.ChangeOriginIP(); err != nil {
		t.Fatal(err)
	}
	rep := f.scanAndFilter()
	var found *Outcome
	for i := range rep.Outcomes {
		if rep.Outcomes[i].Apex == victim.Domain().Apex {
			found = &rep.Outcomes[i]
		}
	}
	if found == nil {
		t.Fatal("stale origin not reported hidden")
	}
	if found.Addr != oldOrigin {
		t.Fatalf("hidden addr = %v, want stale %v", found.Addr, oldOrigin)
	}
	if found.Verified {
		t.Fatal("dead stale address must not verify")
	}
}

// TestRestrictedOriginHiddenButUnverified models the lower-bound caveat: a
// switched site whose origin only answers the new provider's edges.
func TestRestrictedOriginHiddenButUnverified(t *testing.T) {
	f := newFixture(t, 250)
	victim := f.cfNSSites(t, 1)[0]
	if err := victim.Switch(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree, true); err != nil {
		t.Fatal(err)
	}
	if err := victim.RestrictToProviderEdges(); err != nil {
		t.Fatal(err)
	}
	rep := f.scanAndFilter()
	if len(rep.Hidden) != 1 {
		t.Fatalf("hidden = %+v", rep.Hidden)
	}
	if v := rep.VerifiedOrigins(); len(v) != 0 {
		t.Fatalf("restricted origin verified: %+v", v)
	}
}

func TestReportAccessors(t *testing.T) {
	rep := Report{
		Provider: dps.Cloudflare,
		Hidden: []Hidden{
			{Apex: "a.com", Addr: netip.MustParseAddr("10.0.0.1")},
			{Apex: "a.com", Addr: netip.MustParseAddr("10.0.0.2")},
			{Apex: "b.com", Addr: netip.MustParseAddr("10.0.0.3")},
		},
		Outcomes: []Outcome{
			{Hidden: Hidden{Apex: "a.com", Addr: netip.MustParseAddr("10.0.0.1")}, Verified: true},
			{Hidden: Hidden{Apex: "b.com", Addr: netip.MustParseAddr("10.0.0.3")}, Verified: false},
		},
	}
	if got := rep.HiddenApexes(); len(got) != 2 {
		t.Fatalf("HiddenApexes = %v", got)
	}
	if got := rep.VerifiedApexes(); len(got) != 1 || got[0] != dnsmsg.Name("a.com") {
		t.Fatalf("VerifiedApexes = %v", got)
	}
	if got := rep.VerifiedOrigins(); len(got) != 1 {
		t.Fatalf("VerifiedOrigins = %v", got)
	}
}
