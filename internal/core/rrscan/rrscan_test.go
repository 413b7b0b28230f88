package rrscan

import (
	"net/netip"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/match"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/website"
	"rrdps/internal/world"
)

type fixture struct {
	w         *world.World
	resolver  *dnsresolver.Resolver
	domains   []alexa.Domain
	collector *collect.Collector
	matcher   *match.Matcher
	scanner   *Scanner
	vantage   []*dnsresolver.Client
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	cfg := world.PaperConfig(n)
	cfg.Seed = 23
	// Scripted scenario: disable the hardening knobs that make
	// verification probabilistic.
	cfg.OriginRestrictedRate = 0
	cfg.DynamicMetaRate = 0
	w := world.New(cfg)

	resolver := w.NewResolver(netsim.RegionOregon)
	sites := w.Sites()
	domains := make([]alexa.Domain, len(sites))
	for i, s := range sites {
		domains[i] = s.Domain()
	}
	var vantage []*dnsresolver.Client
	for _, region := range netsim.VantageRegions() {
		vantage = append(vantage, w.NewResolver(region).Client())
	}
	return &fixture{
		w:         w,
		resolver:  resolver,
		domains:   domains,
		collector: collect.New(resolver, domains),
		matcher:   match.New(w.Registry, dps.Profiles()),
		scanner:   NewScanner(vantage),
		vantage:   vantage,
	}
}

// discoverNameservers collects day and runs the provider's nameserver
// discovery over the streamed records.
func (f *fixture) discoverNameservers(day int, key dps.ProviderKey) ([]dnsmsg.Name, []netip.Addr) {
	profile, _ := dps.ProfileFor(key)
	d := NewNameserverDiscovery(profile)
	f.collector.CollectStream(day, d.AddRecord)
	return d.Resolve(f.resolver)
}

// cnameLibrary collects day into a new library of the provider's CNAMEs.
func (f *fixture) cnameLibrary(day int, key dps.ProviderKey) *CNAMELibrary {
	lib := NewCNAMELibrary(key, f.matcher)
	f.collector.CollectStream(day, func(rec collect.Record) { lib.AddRecord(rec.Domain.Apex, rec) })
	return lib
}

func (f *fixture) sitesWith(key dps.ProviderKey, method dps.Rerouting) []*website.Site {
	var out []*website.Site
	for _, s := range f.w.Sites() {
		k, m, _ := s.Provider()
		if k == key && m == method {
			out = append(out, s)
		}
	}
	return out
}

func TestDiscoverNameservers(t *testing.T) {
	f := newFixture(t, 300)
	hosts, addrs := f.discoverNameservers(0, dps.Cloudflare)
	if len(hosts) == 0 || len(addrs) != len(hosts) {
		t.Fatalf("hosts = %d, addrs = %d", len(hosts), len(addrs))
	}
	for _, h := range hosts {
		if !h.ContainsSubstring("cloudflare") {
			t.Fatalf("non-cloudflare host discovered: %s", h)
		}
	}
	for _, a := range addrs {
		if key, ok := f.matcher.MatchA(a); !ok || key != dps.Cloudflare {
			t.Fatalf("discovered NS addr %v not in Cloudflare ranges", a)
		}
	}
}

func TestScanDirectActiveCustomersReturnEdges(t *testing.T) {
	f := newFixture(t, 300)
	_, nsAddrs := f.discoverNameservers(0, dps.Cloudflare)

	results := f.scanner.ScanDirect(nsAddrs, f.domains)
	cfSites := f.sitesWith(dps.Cloudflare, dps.ReroutingNS)
	if len(cfSites) == 0 {
		t.Fatal("no cloudflare NS sites")
	}
	for _, s := range cfSites {
		addrs, ok := results[s.Domain().Apex]
		if !ok {
			t.Fatalf("active customer %s missing from scan", s.Domain().Apex)
		}
		if got, ok := f.matcher.MatchA(addrs[0]); !ok || got != dps.Cloudflare {
			t.Fatalf("active customer %s scanned addr %v not a CF edge", s.Domain().Apex, addrs[0])
		}
	}
	// Non-customers never answer.
	for _, s := range f.w.Sites() {
		if key, _, _ := s.Provider(); key == "" {
			if _, ok := results[s.Domain().Apex]; ok {
				t.Fatalf("non-customer %s present in scan", s.Domain().Apex)
			}
		}
	}
}

// TestScanDirectResidualAfterSwitch is the §V-A attack end to end: after a
// customer switches away, the old provider's nameservers leak the origin.
func TestScanDirectResidualAfterSwitch(t *testing.T) {
	f := newFixture(t, 300)
	_, nsAddrs := f.discoverNameservers(0, dps.Cloudflare)

	cfSites := f.sitesWith(dps.Cloudflare, dps.ReroutingNS)
	if len(cfSites) < 3 {
		t.Fatalf("need ≥3 cloudflare sites, have %d", len(cfSites))
	}
	switched, left, silent := cfSites[0], cfSites[1], cfSites[2]
	switchedOrigin := switched.OriginAddr()
	if err := switched.Switch(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree, true); err != nil {
		t.Fatal(err)
	}
	if err := left.Leave(true); err != nil {
		t.Fatal(err)
	}
	if err := silent.Leave(false); err != nil {
		t.Fatal(err)
	}

	results := f.scanner.ScanDirect(nsAddrs, f.domains)

	if got := results[switched.Domain().Apex]; len(got) != 1 || got[0] != switchedOrigin {
		t.Fatalf("switched site scan = %v, want origin %v", got, switchedOrigin)
	}
	if got := results[left.Domain().Apex]; len(got) != 1 || got[0] != left.OriginAddr() {
		t.Fatalf("left site scan = %v, want origin %v", got, left.OriginAddr())
	}
	// The silent leaver's records still point at the edge: no origin leak.
	if got := results[silent.Domain().Apex]; len(got) != 1 {
		t.Fatalf("silent site scan = %v", got)
	} else if key, ok := f.matcher.MatchA(got[0]); !ok || key != dps.Cloudflare {
		t.Fatalf("silent site scan = %v, want CF edge", got)
	}
}

func TestScanSpreadsAcrossVantagePoints(t *testing.T) {
	f := newFixture(t, 200)
	_, nsAddrs := f.discoverNameservers(0, dps.Cloudflare)
	if len(nsAddrs) == 0 {
		t.Fatal("no nameservers discovered")
	}
	f.scanner.ScanDirect(nsAddrs, f.domains)

	// At least three distinct PoPs of the first NS endpoint saw traffic
	// (Fig. 7's load spreading).
	counts := f.w.Net.QueryCounts(netsim.Endpoint{Addr: nsAddrs[0], Port: netsim.PortDNS})
	if len(counts) < 3 {
		t.Fatalf("scan load hit only %d PoPs: %v", len(counts), counts)
	}
}

func TestCNAMELibrary(t *testing.T) {
	f := newFixture(t, 1200)
	lib := f.cnameLibrary(0, dps.Incapsula)
	incSites := f.sitesWith(dps.Incapsula, dps.ReroutingCNAME)
	if len(incSites) == 0 {
		t.Skip("no incapsula sites in sample")
	}
	if lib.Size() != len(incSites) {
		t.Fatalf("library size = %d, want %d", lib.Size(), len(incSites))
	}

	victim := incSites[0]
	origin := victim.OriginAddr()
	if err := victim.Switch(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree, true); err != nil {
		t.Fatal(err)
	}

	f.resolver.PurgeCache()
	results := lib.ResolveAll(f.resolver)
	got, ok := results[victim.Domain().Apex]
	if !ok || len(got) != 1 || got[0] != origin {
		t.Fatalf("stale CNAME resolution = %v, %v, want origin %v", got, ok, origin)
	}
	// Targets accessor is sorted and non-empty for the victim.
	if ts := lib.Targets(victim.Domain().Apex); len(ts) != 1 || !ts[0].ContainsSubstring("incapdns") {
		t.Fatalf("targets = %v", ts)
	}
	if len(lib.Apexes()) != lib.Size() {
		t.Fatal("Apexes inconsistent with Size")
	}
}

func TestCNAMELibraryIgnoresOtherProviders(t *testing.T) {
	f := newFixture(t, 400)
	lib := f.cnameLibrary(0, dps.Incapsula)
	for _, apex := range lib.Apexes() {
		site, _ := f.w.Site(apex)
		key, _, _ := site.Provider()
		if key != dps.Incapsula {
			t.Fatalf("library holds %s (provider %s)", apex, key)
		}
	}
}

// TestScanDirectHostsSubdomains generalizes the scan beyond www (§V-C):
// a DPS-hosted subdomain's residual record leaks just like www's.
func TestScanDirectHostsSubdomains(t *testing.T) {
	f := newFixture(t, 300)
	_, nsAddrs := f.discoverNameservers(0, dps.Cloudflare)

	victim := f.sitesWith(dps.Cloudflare, dps.ReroutingNS)[0]
	apex := victim.Domain().Apex
	origin := victim.OriginAddr()
	if err := victim.Switch(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree, true); err != nil {
		t.Fatal(err)
	}

	hosts := []dnsmsg.Name{apex.Child("www"), apex, apex.Child("missing")}
	results := f.scanner.ScanDirectHosts(nsAddrs, hosts)
	if got := results[apex.Child("www")]; len(got) != 1 || got[0] != origin {
		t.Fatalf("www scan = %v, want origin %v", got, origin)
	}
	// The apex record is also hosted (and leaked).
	if got := results[apex]; len(got) != 1 || got[0] != origin {
		t.Fatalf("apex scan = %v, want origin %v", got, origin)
	}
	// Nonexistent subdomains yield nothing (NXDOMAIN).
	if _, ok := results[apex.Child("missing")]; ok {
		t.Fatal("nonexistent subdomain answered")
	}
}

// ScanDirectHosts is ScanDirect generalized beyond the www subdomain: it
// queries the given hostnames verbatim, keyed by hostname in the result.
// The paper's limitations section (§V-C) notes its study covers only www
// while residual resolution is universal across any DPS-served subdomain;
// this is that generalization.
func (s *Scanner) ScanDirectHosts(nsAddrs []netip.Addr, hosts []dnsmsg.Name) map[dnsmsg.Name][]netip.Addr {
	if len(nsAddrs) == 0 {
		return nil
	}
	return s.scan(nsAddrs, len(hosts), func(i int) (dnsmsg.Name, dnsmsg.Name) {
		return hosts[i], hosts[i]
	})
}
