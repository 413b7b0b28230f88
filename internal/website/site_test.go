package website

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsserver"
	"rrdps/internal/dps"
	"rrdps/internal/httpsim"
	"rrdps/internal/ipspace"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// fakeRegistrar records delegations.
type fakeRegistrar struct {
	delegations map[dnsmsg.Name][]dnsmsg.Name
}

func (f *fakeRegistrar) SetDelegation(apex dnsmsg.Name, hosts []dnsmsg.Name) error {
	if f.delegations == nil {
		f.delegations = make(map[dnsmsg.Name][]dnsmsg.Name)
	}
	f.delegations[apex] = append([]dnsmsg.Name(nil), hosts...)
	return nil
}

type fixture struct {
	clock     *simtime.Simulated
	net       *netsim.Network
	alloc     *ipspace.Allocator
	registry  *ipspace.Registry
	registrar *fakeRegistrar
	infra     *Infra
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		clock:     simtime.NewSimulated(),
		alloc:     ipspace.NewAllocator(netip.MustParseAddr("20.0.0.0")),
		registry:  ipspace.NewRegistry(),
		registrar: &fakeRegistrar{},
	}
	f.net = netsim.New(netsim.Config{Clock: f.clock})

	// ISP space for origins.
	f.registry.AddAS(64500, "isp")
	originPrefix := f.alloc.NextPrefix(16)
	f.registry.MustAnnounce(64500, originPrefix)
	originSeq := 0
	newOrigin := func() netip.Addr {
		a := ipspace.NthAddr(originPrefix, originSeq)
		originSeq++
		return a
	}

	providers := make(map[dps.ProviderKey]*dps.Provider)
	for i, key := range []dps.ProviderKey{dps.Cloudflare, dps.Incapsula, dps.Fastly, dps.DOSarrest} {
		profile, _ := dps.ProfileFor(key)
		providers[key] = dps.New(dps.Config{
			Profile:  profile,
			Network:  f.net,
			Clock:    f.clock,
			Alloc:    f.alloc,
			Registry: f.registry,
			Rand:     rand.New(rand.NewSource(int64(100 + i))),
		})
	}

	hosting := dnsserver.New(dnsserver.Config{Name: "basic-hosting"})
	f.infra = &Infra{
		Network:       f.net,
		Clock:         f.clock,
		Registrar:     f.registrar,
		Hosting:       hosting,
		HostingNS:     []dnsmsg.Name{"ns1.webhost.net", "ns2.webhost.net"},
		Providers:     providers,
		NewOriginAddr: newOrigin,
	}
	return f
}

func newSite(t *testing.T, f *fixture, apex string) *Site {
	t.Helper()
	s, err := New(f.infra, alexa.Domain{Rank: 1, Apex: dnsmsg.MustParseName(apex)},
		netsim.RegionVirginia, httpsim.Page{Title: "T-" + apex, Meta: map[string]string{"description": apex}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wwwA(t *testing.T, s *Site) (netip.Addr, bool) {
	t.Helper()
	rrs := s.Zone().Get(s.WWW(), dnsmsg.TypeA)
	if len(rrs) == 0 {
		return netip.Addr{}, false
	}
	return rrs[0].Data.(dnsmsg.AData).Addr, true
}

func TestNewSiteZoneAndDelegation(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	addr, ok := wwwA(t, s)
	if !ok || addr != s.OriginAddr() {
		t.Fatalf("www A = %v, want origin %v", addr, s.OriginAddr())
	}
	if got := f.registrar.delegations["shop.com"]; len(got) != 2 || got[0] != "ns1.webhost.net" {
		t.Fatalf("delegation = %v", got)
	}
	if len(s.Zone().Get("shop.com", dnsmsg.TypeMX)) != 1 {
		t.Fatal("missing MX record")
	}
	if s.Protected() {
		t.Fatal("fresh site reports protected")
	}
}

func TestJoinAMethod(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.DOSarrest, dps.ReroutingA, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	addr, _ := wwwA(t, s)
	if !f.registry.Contains(19324, addr) {
		t.Fatalf("www A %v not in DOSarrest space", addr)
	}
	if !s.Protected() {
		t.Fatal("not protected after join")
	}
}

func TestJoinCNAMEMethod(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	if _, hasA := wwwA(t, s); hasA {
		t.Fatal("www still has an A record after CNAME join")
	}
	cn := s.Zone().Get(s.WWW(), dnsmsg.TypeCNAME)
	if len(cn) != 1 || !cn[0].Data.(dnsmsg.CNAMEData).Target.ContainsSubstring("incapdns") {
		t.Fatalf("www CNAME = %v", cn)
	}
	apexA := s.Zone().Get("shop.com", dnsmsg.TypeA)
	if len(apexA) != 1 || !f.registry.Contains(19551, apexA[0].Data.(dnsmsg.AData).Addr) {
		t.Fatalf("apex A = %v, want flattened edge", apexA)
	}
}

func TestJoinNSMethod(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	got := f.registrar.delegations["shop.com"]
	if len(got) != 2 || !got[0].ContainsSubstring("cloudflare") {
		t.Fatalf("delegation = %v", got)
	}
}

func TestJoinTwiceFails(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := s.Join(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree); !errors.Is(err, ErrHasDPS) {
		t.Fatalf("err = %v, want ErrHasDPS", err)
	}
}

func TestJoinUnsupportedMethodSurfaced(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Incapsula, dps.ReroutingNS, dps.PlanFree); !errors.Is(err, dps.ErrUnsupportedMethod) {
		t.Fatalf("err = %v, want dps.ErrUnsupportedMethod", err)
	}
}

func TestPauseResume(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := s.Pause(); err != nil {
		t.Fatal(err)
	}
	if s.Protected() {
		t.Fatal("paused site reports protected")
	}
	key, _, paused := s.Provider()
	if key != dps.Cloudflare || !paused {
		t.Fatalf("Provider() = %v, %v", key, paused)
	}
	if err := s.Pause(); !errors.Is(err, ErrPaused) {
		t.Fatalf("double pause err = %v", err)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if !s.Protected() {
		t.Fatal("resumed site not protected")
	}
	if err := s.Resume(); !errors.Is(err, ErrNotPaused) {
		t.Fatalf("double resume err = %v", err)
	}
}

func TestLeaveRestoresSelfHosting(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(true); err != nil {
		t.Fatal(err)
	}
	if got := f.registrar.delegations["shop.com"]; got[0] != "ns1.webhost.net" {
		t.Fatalf("delegation after leave = %v", got)
	}
	addr, _ := wwwA(t, s)
	if addr != s.OriginAddr() {
		t.Fatalf("www A after leave = %v, want origin", addr)
	}
	// The previous provider retains a residual (terminated) record.
	cf := f.infra.Providers[dps.Cloudflare]
	c, ok := cf.Customer("shop.com")
	if !ok || c.State != dps.StateTerminated || !c.Notified {
		t.Fatalf("cloudflare customer after leave = %+v, %v", c, ok)
	}
	if err := s.Leave(true); !errors.Is(err, ErrNoDPS) {
		t.Fatalf("double leave err = %v", err)
	}
}

func TestLeaveCNAMERestoresARecord(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := s.Leave(true); err != nil {
		t.Fatal(err)
	}
	if cn := s.Zone().Get(s.WWW(), dnsmsg.TypeCNAME); len(cn) != 0 {
		t.Fatalf("www CNAME survived leave: %v", cn)
	}
	addr, ok := wwwA(t, s)
	if !ok || addr != s.OriginAddr() {
		t.Fatalf("www A = %v, %v", addr, ok)
	}
}

func TestSwitchProviders(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := s.Switch(dps.Incapsula, dps.ReroutingCNAME, dps.PlanFree, true); err != nil {
		t.Fatal(err)
	}
	key, method, _ := s.Provider()
	if key != dps.Incapsula || method != dps.ReroutingCNAME {
		t.Fatalf("after switch: %v %v", key, method)
	}
	// Old provider holds a terminated (residual) record — the attack
	// surface of §V.
	cf := f.infra.Providers[dps.Cloudflare]
	if c, ok := cf.Customer("shop.com"); !ok || c.State != dps.StateTerminated {
		t.Fatalf("old provider customer = %+v, %v", c, ok)
	}
	// Delegation restored to hosting (CNAME rerouting keeps own NS).
	if got := f.registrar.delegations["shop.com"]; got[0] != "ns1.webhost.net" {
		t.Fatalf("delegation after switch = %v", got)
	}
}

func TestSwitchToSelfFails(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := s.Switch(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree, true); err == nil {
		t.Fatal("switch to same provider succeeded")
	}
}

func TestChangeOriginIPUnprotected(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	old := s.OriginAddr()
	newAddr, err := s.ChangeOriginIP()
	if err != nil {
		t.Fatal(err)
	}
	if newAddr == old {
		t.Fatal("origin address did not change")
	}
	if addr, _ := wwwA(t, s); addr != newAddr {
		t.Fatalf("www A = %v, want %v", addr, newAddr)
	}
	// Old endpoint is gone; new one serves.
	client := httpsim.NewClient(f.net, netip.MustParseAddr("198.51.100.4"), netsim.RegionOregon)
	if _, err := client.Get(old, "www.shop.com", "/"); !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("old origin err = %v, want unreachable", err)
	}
	resp, err := client.Get(newAddr, "www.shop.com", "/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("new origin: %v %d", err, resp.StatusCode)
	}
}

func TestChangeOriginIPUpdatesProvider(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	newAddr, err := s.ChangeOriginIP()
	if err != nil {
		t.Fatal(err)
	}
	cf := f.infra.Providers[dps.Cloudflare]
	c, _ := cf.Customer("shop.com")
	if c.Origin != newAddr {
		t.Fatalf("provider origin = %v, want %v", c.Origin, newAddr)
	}
}

func TestRestrictToProviderEdges(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join(dps.Cloudflare, dps.ReroutingNS, dps.PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := s.RestrictToProviderEdges(); err != nil {
		t.Fatal(err)
	}
	client := httpsim.NewClient(f.net, netip.MustParseAddr("198.51.100.4"), netsim.RegionOregon)
	resp, err := client.Get(s.OriginAddr(), "www.shop.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 403 {
		t.Fatalf("direct fetch status = %d, want 403", resp.StatusCode)
	}
	// Via the provider edge it still works.
	cf := f.infra.Providers[dps.Cloudflare]
	c, _ := cf.Customer("shop.com")
	resp, err = client.Get(c.EdgeAddr, "www.shop.com", "/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("via edge: %v %d", err, resp.StatusCode)
	}
	// Leaving clears the restriction.
	if err := s.Leave(true); err != nil {
		t.Fatal(err)
	}
	if err := s.RestrictToProviderEdges(); err != nil {
		t.Fatal(err)
	}
	resp, _ = client.Get(s.OriginAddr(), "www.shop.com", "/")
	if resp.StatusCode != 200 {
		t.Fatalf("after clearing: %d", resp.StatusCode)
	}
}

func TestNewSiteIncompleteInfra(t *testing.T) {
	if _, err := New(&Infra{}, alexa.Domain{Rank: 1, Apex: "x.com"}, netsim.RegionOregon, httpsim.Page{}); err == nil {
		t.Fatal("New with empty infra succeeded")
	}
}

func TestJoinUnknownProvider(t *testing.T) {
	f := newFixture(t)
	s := newSite(t, f, "shop.com")
	if err := s.Join("nonesuch", dps.ReroutingNS, dps.PlanFree); err == nil {
		t.Fatal("join unknown provider succeeded")
	}
}

// New creates a site: it spins up the origin at a fresh address, builds
// the site's own zone at the hosting service, and delegates the apex to
// the hosting nameservers.
func New(infra *Infra, domain alexa.Domain, region netsim.Region, page httpsim.Page) (*Site, error) {
	return NewExposed(infra, domain, region, page, Exposure{})
}

// Page returns the landing page currently served.
func (s *Site) Page() httpsim.Page { return s.origin.Page() }
