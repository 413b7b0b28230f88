package dps

import (
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/httpsim"
	"rrdps/internal/ipspace"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// fixture wires one provider with an enrolled-ready environment.
type fixture struct {
	clock    *simtime.Simulated
	net      *netsim.Network
	alloc    *ipspace.Allocator
	registry *ipspace.Registry
	provider *Provider

	originAddr netip.Addr
	origin     *httpsim.Origin
	dnsClient  *dnsresolver.Client
	webClient  *httpsim.Client
}

func newFixture(t *testing.T, key ProviderKey) *fixture {
	t.Helper()
	f := &fixture{
		clock:    simtime.NewSimulated(),
		alloc:    ipspace.NewAllocator(netip.MustParseAddr("20.0.0.0")),
		registry: ipspace.NewRegistry(),
	}
	f.net = netsim.New(netsim.Config{Clock: f.clock})

	profile, ok := ProfileFor(key)
	if !ok {
		t.Fatalf("no profile for %s", key)
	}
	f.provider = New(Config{
		Profile:  profile,
		Network:  f.net,
		Clock:    f.clock,
		Alloc:    f.alloc,
		Registry: f.registry,
		Rand:     rand.New(rand.NewSource(77)),
	})

	// An origin website.
	f.originAddr = netip.MustParseAddr("198.18.0.10")
	f.origin = httpsim.NewOrigin(httpsim.OriginConfig{
		Page: httpsim.Page{Title: "Customer Site", Meta: map[string]string{"description": "d"}},
	})
	f.net.Register(netsim.Endpoint{Addr: f.originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, f.origin)

	f.dnsClient = dnsresolver.NewClient(f.net, netip.MustParseAddr("198.51.100.2"), netsim.RegionOregon, rand.New(rand.NewSource(3)))
	f.webClient = httpsim.NewClient(f.net, netip.MustParseAddr("198.51.100.2"), netsim.RegionOregon)
	return f
}

// queryNS asks one of the provider's pool nameservers for www.apex A.
func (f *fixture) queryNS(t *testing.T, apex dnsmsg.Name) (*dnsmsg.Message, error) {
	t.Helper()
	pool := f.provider.NSPool()
	if len(pool) == 0 {
		t.Fatal("provider has no NS pool")
	}
	addr, ok := f.provider.NSPoolAddr(pool[0])
	if !ok {
		t.Fatal("pool NS has no address")
	}
	return f.dnsClient.Exchange(addr, apex.Child("www"), dnsmsg.TypeA)
}

func answerAddr(t *testing.T, m *dnsmsg.Message) netip.Addr {
	t.Helper()
	as := m.AnswersOfType(dnsmsg.TypeA)
	if len(as) == 0 {
		t.Fatalf("no A answers in %s", m)
	}
	return as[0].Data.(dnsmsg.AData).Addr
}

func TestEnrollNSHosting(t *testing.T) {
	f := newFixture(t, Cloudflare)
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg.NSHosts) != 2 || asg.NSHosts[0] == asg.NSHosts[1] {
		t.Fatalf("NSHosts = %v, want 2 distinct", asg.NSHosts)
	}
	for _, h := range asg.NSHosts {
		if !h.ContainsSubstring("ns.cloudflare.com") {
			t.Errorf("NS host %s does not follow [name].ns.cloudflare.com", h)
		}
	}
	resp, err := f.queryNS(t, "shop.com")
	if err != nil {
		t.Fatal(err)
	}
	got := answerAddr(t, resp)
	if got != asg.EdgeAddr {
		t.Fatalf("active answer = %v, want edge %v", got, asg.EdgeAddr)
	}
	if !f.registry.Contains(13335, got) {
		t.Fatal("edge address not in Cloudflare AS range")
	}
}

func TestEnrollCNAME(t *testing.T) {
	f := newFixture(t, Incapsula)
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingCNAME, PlanFree)
	if err != nil {
		t.Fatal(err)
	}
	if !asg.CNAMETarget.ContainsSubstring("incapdns") {
		t.Fatalf("CNAME target %s missing provider substring", asg.CNAMETarget)
	}
	// Resolve the CNAME target directly at the provider's infra NS.
	var infraAddr netip.Addr
	for _, a := range f.provider.InfraNS() {
		infraAddr = a
		break
	}
	resp, err := f.dnsClient.Exchange(infraAddr, asg.CNAMETarget, dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := answerAddr(t, resp); got != asg.EdgeAddr {
		t.Fatalf("CNAME target answer = %v, want edge %v", got, asg.EdgeAddr)
	}
}

func TestEnrollUnsupportedMethod(t *testing.T) {
	f := newFixture(t, Incapsula)
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); !errors.Is(err, ErrUnsupportedMethod) {
		t.Fatalf("err = %v, want ErrUnsupportedMethod", err)
	}
}

func TestEnrollTwiceFails(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); !errors.Is(err, ErrAlreadyEnrolled) {
		t.Fatalf("err = %v, want ErrAlreadyEnrolled", err)
	}
}

func TestEdgeServesCustomerContent(t *testing.T) {
	f := newFixture(t, Cloudflare)
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.webClient.Get(asg.EdgeAddr, "www.shop.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || httpsim.ParsePage(resp.Body).Title != "Customer Site" {
		t.Fatalf("edge response: %d %q", resp.StatusCode, resp.Body)
	}
}

func TestPauseExposesOriginAndResumeHides(t *testing.T) {
	f := newFixture(t, Cloudflare)
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Pause("shop.com"); err != nil {
		t.Fatal(err)
	}
	resp, err := f.queryNS(t, "shop.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := answerAddr(t, resp); got != f.originAddr {
		t.Fatalf("paused answer = %v, want origin %v", got, f.originAddr)
	}
	if err := f.provider.Resume("shop.com"); err != nil {
		t.Fatal(err)
	}
	resp, err = f.queryNS(t, "shop.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := answerAddr(t, resp); got != asg.EdgeAddr {
		t.Fatalf("resumed answer = %v, want edge %v", got, asg.EdgeAddr)
	}
}

func TestPauseStateErrors(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if err := f.provider.Pause("ghost.com"); !errors.Is(err, ErrUnknownCustomer) {
		t.Fatalf("err = %v, want ErrUnknownCustomer", err)
	}
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Resume("shop.com"); !errors.Is(err, ErrBadState) {
		t.Fatalf("resume active err = %v, want ErrBadState", err)
	}
	if err := f.provider.Pause("shop.com"); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Pause("shop.com"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double pause err = %v, want ErrBadState", err)
	}
}

// TestResidualResolutionAfterTermination is the core vulnerability: after a
// notified termination, Cloudflare-style nameservers keep answering with
// the origin address.
func TestResidualResolutionAfterTermination(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("shop.com", true); err != nil {
		t.Fatal(err)
	}
	resp, err := f.queryNS(t, "shop.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := answerAddr(t, resp); got != f.originAddr {
		t.Fatalf("residual answer = %v, want origin %v", got, f.originAddr)
	}
}

func TestResidualRecordPurgedAfterDeadline(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("shop.com", true); err != nil {
		t.Fatal(err)
	}
	// Paper §V-A.3: the free-plan record purges at the 4th week.
	f.clock.AdvanceDays(27)
	if purged := f.provider.PurgeExpired(); len(purged) != 0 {
		t.Fatalf("purged %v before deadline", purged)
	}
	f.clock.AdvanceDays(2)
	purged := f.provider.PurgeExpired()
	if len(purged) != 1 || purged[0] != "shop.com" {
		t.Fatalf("purged = %v", purged)
	}
	// Now the nameserver ignores the query (timeout).
	_, err := f.queryNS(t, "shop.com")
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("post-purge err = %v, want timeout", err)
	}
	if _, ok := f.provider.Customer("shop.com"); ok {
		t.Fatal("customer record survived purge")
	}
}

func TestPaidPlanPurgesLater(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if _, err := f.provider.Enroll("paid.com", f.originAddr, ReroutingNS, PlanPaid); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("paid.com", true); err != nil {
		t.Fatal(err)
	}
	f.clock.AdvanceDays(29)
	if purged := f.provider.PurgeExpired(); len(purged) != 0 {
		t.Fatalf("paid plan purged at 29 days: %v", purged)
	}
	f.clock.AdvanceDays(45)
	if purged := f.provider.PurgeExpired(); len(purged) != 1 {
		t.Fatalf("paid plan not purged at 74 days: %v", purged)
	}
}

func TestCleanPolicyRemovesRecordsImmediately(t *testing.T) {
	f := newFixture(t, Fastly)
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingCNAME, PlanFree)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("shop.com", true); err != nil {
		t.Fatal(err)
	}
	var infraAddr netip.Addr
	for _, a := range f.provider.InfraNS() {
		infraAddr = a
		break
	}
	resp, err := f.dnsClient.Exchange(infraAddr, asg.CNAMETarget, dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("clean-policy rcode = %v, want NXDOMAIN", resp.Header.RCode)
	}
	if _, ok := f.provider.Customer("shop.com"); ok {
		t.Fatal("clean policy left a customer record")
	}
}

func TestSilentLeaveKeepsEdgeRecords(t *testing.T) {
	f := newFixture(t, Cloudflare)
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("shop.com", false); err != nil {
		t.Fatal(err)
	}
	resp, err := f.queryNS(t, "shop.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := answerAddr(t, resp); got != asg.EdgeAddr {
		t.Fatalf("silent-leave answer = %v, want edge %v (no origin leak)", got, asg.EdgeAddr)
	}
}

func TestIncapsulaResidualCNAME(t *testing.T) {
	f := newFixture(t, Incapsula)
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingCNAME, PlanFree)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("shop.com", true); err != nil {
		t.Fatal(err)
	}
	var infraAddr netip.Addr
	for _, a := range f.provider.InfraNS() {
		infraAddr = a
		break
	}
	resp, err := f.dnsClient.Exchange(infraAddr, asg.CNAMETarget, dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if got := answerAddr(t, resp); got != f.originAddr {
		t.Fatalf("stale CNAME answer = %v, want origin %v", got, f.originAddr)
	}
}

func TestReEnrollAfterTermination(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("shop.com", true); err != nil {
		t.Fatal(err)
	}
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree)
	if err != nil {
		t.Fatalf("re-enroll: %v", err)
	}
	resp, err := f.queryNS(t, "shop.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := answerAddr(t, resp); got != asg.EdgeAddr {
		t.Fatalf("re-enrolled answer = %v, want edge %v", got, asg.EdgeAddr)
	}
}

func TestUpdateOrigin(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	newOrigin := netip.MustParseAddr("198.18.0.99")
	if err := f.provider.UpdateOrigin("shop.com", newOrigin); err != nil {
		t.Fatal(err)
	}
	c, _ := f.provider.Customer("shop.com")
	if c.Origin != newOrigin {
		t.Fatalf("origin = %v", c.Origin)
	}
	// Paused answers follow the new origin.
	if err := f.provider.Pause("shop.com"); err != nil {
		t.Fatal(err)
	}
	resp, err := f.queryNS(t, "shop.com")
	if err != nil {
		t.Fatal(err)
	}
	if got := answerAddr(t, resp); got != newOrigin {
		t.Fatalf("paused answer = %v, want new origin %v", got, newOrigin)
	}
}

func TestAnycastNSSpreadsAcrossPoPs(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	pool := f.provider.NSPool()
	addr, _ := f.provider.NSPoolAddr(pool[0])
	ep := netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}
	for _, region := range netsim.VantageRegions() {
		c := dnsresolver.NewClient(f.net, netip.MustParseAddr("198.51.100.9"), region, rand.New(rand.NewSource(1)))
		if _, err := c.Exchange(addr, dnsmsg.Name("www.shop.com"), dnsmsg.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	counts := f.net.QueryCounts(ep)
	if len(counts) < 3 {
		t.Fatalf("queries from 5 vantage regions hit only %d PoPs: %v", len(counts), counts)
	}
}

func TestCNAMETargetsUnpredictable(t *testing.T) {
	f := newFixture(t, Incapsula)
	seen := make(map[dnsmsg.Name]bool)
	for i := 0; i < 50; i++ {
		apex := dnsmsg.MustParseName(strings.ToLower("site" + string(rune('a'+i%26)) + "x" + string(rune('0'+i%10)) + ".com"))
		apex = dnsmsg.MustParseName(strings.ReplaceAll(string(apex), " ", ""))
		asgApex := dnsmsg.MustParseName(string(apex))
		asg, err := f.provider.Enroll(asgApex, f.originAddr, ReroutingCNAME, PlanFree)
		if err != nil {
			// duplicate apex in this crude generator: skip
			continue
		}
		if seen[asg.CNAMETarget] {
			t.Fatalf("duplicate CNAME target %s", asg.CNAMETarget)
		}
		seen[asg.CNAMETarget] = true
	}
	if len(seen) < 20 {
		t.Fatalf("only %d unique targets generated", len(seen))
	}
}

func TestTerminateErrors(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if err := f.provider.Terminate("ghost.com", true); !errors.Is(err, ErrUnknownCustomer) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("shop.com", true); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Terminate("shop.com", true); !errors.Is(err, ErrBadState) {
		t.Fatalf("double terminate err = %v, want ErrBadState", err)
	}
}

func TestCustomersAccessor(t *testing.T) {
	f := newFixture(t, Cloudflare)
	for _, apex := range []dnsmsg.Name{"b.com", "a.com", "c.com"} {
		if _, err := f.provider.Enroll(apex, f.originAddr, ReroutingNS, PlanFree); err != nil {
			t.Fatal(err)
		}
	}
	got := f.provider.Customers()
	if len(got) != 3 || got[0].Apex != "a.com" || got[2].Apex != "c.com" {
		t.Fatalf("Customers() = %+v", got)
	}
	// Mutating the copy must not affect provider state.
	got[0].State = StateTerminated
	c, _ := f.provider.Customer("a.com")
	if c.State != StateActive {
		t.Fatal("Customers() leaked internal state")
	}
}

func TestHostedQueriesCounter(t *testing.T) {
	f := newFixture(t, Cloudflare)
	if _, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree); err != nil {
		t.Fatal(err)
	}
	if _, err := f.queryNS(t, "shop.com"); err != nil {
		t.Fatal(err)
	}
	if got := f.provider.HostedQueries(); got != 1 {
		t.Fatalf("HostedQueries = %d", got)
	}
	// Non-NS provider reports zero.
	inc := newFixture(t, Incapsula)
	if got := inc.provider.HostedQueries(); got != 0 {
		t.Fatalf("incapsula HostedQueries = %d", got)
	}
}

func TestEnrollDistributesPlansAndTTLs(t *testing.T) {
	f := newFixture(t, Cloudflare)
	asg, err := f.provider.Enroll("shop.com", f.originAddr, ReroutingNS, PlanFree)
	if err != nil {
		t.Fatal(err)
	}
	_ = asg
	resp, err := f.queryNS(t, "shop.com")
	if err != nil {
		t.Fatal(err)
	}
	a := resp.AnswersOfType(dnsmsg.TypeA)[0]
	if a.TTL != 5*time.Minute {
		t.Fatalf("A TTL = %v, want 5m", a.TTL)
	}
}

// TestEveryProviderEnrollsViaEveryOfferedMethod exercises the full
// Table II matrix: each provider accepts each method it advertises and
// rejects the others.
func TestEveryProviderEnrollsViaEveryOfferedMethod(t *testing.T) {
	for _, profile := range Profiles() {
		profile := profile
		t.Run(string(profile.Key), func(t *testing.T) {
			for _, method := range []Rerouting{ReroutingA, ReroutingCNAME, ReroutingNS} {
				f := newFixture(t, profile.Key)
				asg, err := f.provider.Enroll("matrix.com", f.originAddr, method, PlanFree)
				if profile.Supports(method) {
					if err != nil {
						t.Fatalf("%s via %s: %v", profile.Key, method, err)
					}
					switch method {
					case ReroutingA:
						if !asg.EdgeAddr.IsValid() {
							t.Fatal("A enrollment without edge address")
						}
					case ReroutingCNAME:
						if asg.CNAMETarget == "" {
							t.Fatal("CNAME enrollment without target")
						}
					case ReroutingNS:
						if len(asg.NSHosts) == 0 {
							t.Fatal("NS enrollment without hosts")
						}
					}
					// Full teardown works for every provider/method pair.
					if err := f.provider.Terminate("matrix.com", true); err != nil {
						t.Fatalf("terminate: %v", err)
					}
				} else if !errors.Is(err, ErrUnsupportedMethod) {
					t.Fatalf("%s via unsupported %s: err = %v", profile.Key, method, err)
				}
			}
		})
	}
}

// HostedQueries returns how many queries the NS-hosting fleet has served.
func (p *Provider) HostedQueries() uint64 {
	if p.custServer == nil {
		return 0
	}
	return p.custServer.Queries()
}
