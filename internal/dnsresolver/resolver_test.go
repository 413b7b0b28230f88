package dnsresolver

import (
	"errors"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsserver"
	"rrdps/internal/dnszone"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// fixture is a miniature Internet: a root server, a com/net TLD server, an
// authoritative server for example.com, and a provider server for cdn.net.
type fixture struct {
	clock *simtime.Simulated
	net   *netsim.Network

	rootAddr netip.Addr
	tldAddr  netip.Addr
	authAddr netip.Addr
	provAddr netip.Addr

	rootSrv *dnsserver.Server
	tldSrv  *dnsserver.Server
	authSrv *dnsserver.Server
	provSrv *dnsserver.Server

	rootZone *dnszone.Zone
	tldZone  *dnszone.Zone
	authZone *dnszone.Zone
	provZone *dnszone.Zone

	resolver *Resolver
}

func soa(mname dnsmsg.Name) dnsmsg.SOAData {
	return dnsmsg.SOAData{MName: mname, RName: "hostmaster." + mname, Serial: 1, Minimum: 300}
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	f := &fixture{
		clock:    simtime.NewSimulated(),
		rootAddr: netip.MustParseAddr("192.0.2.1"),
		tldAddr:  netip.MustParseAddr("192.0.2.2"),
		authAddr: netip.MustParseAddr("192.0.2.3"),
		provAddr: netip.MustParseAddr("192.0.2.4"),
	}
	f.net = netsim.New(netsim.Config{Clock: f.clock})

	// Root zone: delegate com and net to the shared TLD server.
	f.rootZone = dnszone.New("", soa("a.root-servers.net"))
	f.rootZone.MustAdd(dnsmsg.NewNS("com", 48*time.Hour, "a.gtld-servers.net"))
	f.rootZone.MustAdd(dnsmsg.NewNS("net", 48*time.Hour, "a.gtld-servers.net"))
	f.rootZone.MustAdd(dnsmsg.NewA("a.gtld-servers.net", 48*time.Hour, f.tldAddr))

	// TLD server hosts both com and net.
	f.tldZone = dnszone.New("com", soa("a.gtld-servers.net"))
	f.tldZone.MustAdd(dnsmsg.NewNS("example.com", 24*time.Hour, "ns1.example.com"))
	f.tldZone.MustAdd(dnsmsg.NewA("ns1.example.com", 24*time.Hour, f.authAddr))
	netZone := dnszone.New("net", soa("a.gtld-servers.net"))
	netZone.MustAdd(dnsmsg.NewNS("cdn.net", 24*time.Hour, "ns1.cdn.net"))
	netZone.MustAdd(dnsmsg.NewA("ns1.cdn.net", 24*time.Hour, f.provAddr))

	// example.com authoritative content.
	f.authZone = dnszone.New("example.com", soa("ns1.example.com"))
	f.authZone.MustAdd(dnsmsg.NewA("www.example.com", 5*time.Minute, netip.MustParseAddr("10.1.0.1")))
	f.authZone.MustAdd(dnsmsg.NewCNAME("cdn-www.example.com", 5*time.Minute, "edge7.cdn.net"))
	f.authZone.MustAdd(dnsmsg.NewNS("example.com", 24*time.Hour, "ns1.example.com"))

	// Provider zone (cdn.net) with an edge A record.
	f.provZone = dnszone.New("cdn.net", soa("ns1.cdn.net"))
	f.provZone.MustAdd(dnsmsg.NewA("edge7.cdn.net", 30*time.Second, netip.MustParseAddr("10.9.0.7")))
	f.provZone.MustAdd(dnsmsg.NewNS("cdn.net", 24*time.Hour, "ns1.cdn.net"))
	f.provZone.MustAdd(dnsmsg.NewA("ns1.cdn.net", 24*time.Hour, f.provAddr))

	f.rootSrv = dnsserver.New(dnsserver.Config{Name: "root"})
	f.rootSrv.AddZone(f.rootZone)
	f.tldSrv = dnsserver.New(dnsserver.Config{Name: "tld"})
	f.tldSrv.AddZone(f.tldZone)
	f.tldSrv.AddZone(netZone)
	f.authSrv = dnsserver.New(dnsserver.Config{Name: "auth"})
	f.authSrv.AddZone(f.authZone)
	f.provSrv = dnsserver.New(dnsserver.Config{Name: "prov"})
	f.provSrv.AddZone(f.provZone)

	f.net.Register(netsim.Endpoint{Addr: f.rootAddr, Port: netsim.PortDNS}, netsim.RegionVirginia, f.rootSrv)
	f.net.Register(netsim.Endpoint{Addr: f.tldAddr, Port: netsim.PortDNS}, netsim.RegionVirginia, f.tldSrv)
	f.net.Register(netsim.Endpoint{Addr: f.authAddr, Port: netsim.PortDNS}, netsim.RegionLondon, f.authSrv)
	f.net.Register(netsim.Endpoint{Addr: f.provAddr, Port: netsim.PortDNS}, netsim.RegionTokyo, f.provSrv)

	f.resolver = New(Config{
		Network: f.net,
		Clock:   f.clock,
		Addr:    netip.MustParseAddr("198.51.100.53"),
		Region:  netsim.RegionOregon,
		Roots:   []netip.Addr{f.rootAddr},
		Rand:    rand.New(rand.NewSource(5)),
	})
	return f
}

func TestResolveSimpleA(t *testing.T) {
	f := newFixture(t)
	res, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	addrs := res.Addrs()
	if len(addrs) != 1 || addrs[0] != netip.MustParseAddr("10.1.0.1") {
		t.Fatalf("addrs = %v", addrs)
	}
	if len(res.Chain) != 0 {
		t.Fatalf("unexpected chain %v", res.Chain)
	}
	if res.FinalName() != "www.example.com" {
		t.Fatalf("FinalName = %v", res.FinalName())
	}
}

func TestResolveCrossZoneCNAME(t *testing.T) {
	f := newFixture(t)
	res, err := f.resolver.Resolve("cdn-www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if got := res.CNAMETargets(); len(got) != 1 || got[0] != "edge7.cdn.net" {
		t.Fatalf("chain targets = %v", got)
	}
	if addrs := res.Addrs(); len(addrs) != 1 || addrs[0] != netip.MustParseAddr("10.9.0.7") {
		t.Fatalf("addrs = %v", addrs)
	}
	if res.FinalName() != "edge7.cdn.net" {
		t.Fatalf("FinalName = %v", res.FinalName())
	}
}

func TestResolveNXDomain(t *testing.T) {
	f := newFixture(t)
	_, err := f.resolver.Resolve("missing.example.com", dnsmsg.TypeA)
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v, want ErrNXDomain", err)
	}
}

func TestResolveNoData(t *testing.T) {
	f := newFixture(t)
	res, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeMX)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(res.Answers) != 0 {
		t.Fatalf("answers = %v, want empty NODATA", res.Answers)
	}
}

func TestResolveNSRecords(t *testing.T) {
	f := newFixture(t)
	res, err := f.resolver.Resolve("example.com", dnsmsg.TypeNS)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	hosts := res.NSHosts()
	if len(hosts) != 1 || hosts[0] != "ns1.example.com" {
		t.Fatalf("NS hosts = %v", hosts)
	}
}

func TestCacheServesRepeatQueries(t *testing.T) {
	f := newFixture(t)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	rootBefore := f.rootSrv.Queries()
	authBefore := f.authSrv.Queries()
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if f.rootSrv.Queries() != rootBefore || f.authSrv.Queries() != authBefore {
		t.Fatal("second resolution hit servers despite warm cache")
	}
}

func TestCacheRespectsTTLExpiry(t *testing.T) {
	f := newFixture(t)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	// Change the record; within TTL the resolver must keep the old answer.
	if err := f.authZone.Set("www.example.com", dnsmsg.TypeA,
		dnsmsg.NewA("www.example.com", 5*time.Minute, netip.MustParseAddr("10.1.0.99"))); err != nil {
		t.Fatal(err)
	}
	res, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addrs()[0] != netip.MustParseAddr("10.1.0.1") {
		t.Fatalf("expected cached answer, got %v", res.Addrs())
	}
	// After TTL expiry the new record must surface.
	f.clock.Advance(6 * time.Minute)
	res, err = f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addrs()[0] != netip.MustParseAddr("10.1.0.99") {
		t.Fatalf("expected fresh answer after TTL, got %v", res.Addrs())
	}
}

func TestPurgeCacheForcesRefetch(t *testing.T) {
	f := newFixture(t)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if f.resolver.CacheLen() == 0 {
		t.Fatal("cache empty after resolution")
	}
	if err := f.authZone.Set("www.example.com", dnsmsg.TypeA,
		dnsmsg.NewA("www.example.com", 5*time.Minute, netip.MustParseAddr("10.1.0.42"))); err != nil {
		t.Fatal(err)
	}
	f.resolver.PurgeCache()
	if f.resolver.CacheLen() != 0 {
		t.Fatal("cache not empty after purge")
	}
	res, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addrs()[0] != netip.MustParseAddr("10.1.0.42") {
		t.Fatalf("purge did not force refetch: %v", res.Addrs())
	}
}

// TestStaleDelegationStillQueried reproduces the root cause of residual
// resolution (§VI-A): a resolver holding a cached NS delegation keeps
// querying the previous provider's nameserver even after the parent zone
// has been re-delegated.
func TestStaleDelegationStillQueried(t *testing.T) {
	f := newFixture(t)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}

	// The domain moves to a new provider: parent delegation now points at
	// the provider server, which serves a different answer.
	newAuth := dnszone.New("example.com", soa("ns1.cdn.net"))
	newAuth.MustAdd(dnsmsg.NewA("www.example.com", 5*time.Minute, netip.MustParseAddr("10.9.0.200")))
	f.provSrv.AddZone(newAuth)
	if err := f.tldZone.Set("example.com", dnsmsg.TypeNS,
		dnsmsg.NewNS("example.com", 24*time.Hour, "ns1.cdn.net")); err != nil {
		t.Fatal(err)
	}
	if err := f.tldZone.Set("ns1.example.com", dnsmsg.TypeA); err != nil { // drop old glue
		t.Fatal(err)
	}

	// Within the answer TTL nothing changes; advance past it but keep the
	// (24h) delegation cached: resolver must still ask the OLD server.
	f.clock.Advance(10 * time.Minute)
	authBefore := f.authSrv.Queries()
	res, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if f.authSrv.Queries() == authBefore {
		t.Fatal("resolver did not query the stale (previous) nameserver")
	}
	if res.Addrs()[0] != netip.MustParseAddr("10.1.0.1") {
		t.Fatalf("stale delegation answer = %v, want old provider's 10.1.0.1", res.Addrs())
	}

	// After purge (or NS TTL expiry) the new delegation takes over.
	f.resolver.PurgeCache()
	res, err = f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addrs()[0] != netip.MustParseAddr("10.9.0.200") {
		t.Fatalf("post-purge answer = %v, want new provider's 10.9.0.200", res.Addrs())
	}
}

func TestResolveServFailWhenAuthDown(t *testing.T) {
	f := newFixture(t)
	f.net.Deregister(netsim.Endpoint{Addr: f.authAddr, Port: netsim.PortDNS})
	_, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
	if !errors.Is(err, ErrServFail) {
		t.Fatalf("err = %v, want ErrServFail", err)
	}
}

func TestResolveDelegationWithoutGlue(t *testing.T) {
	f := newFixture(t)
	// Delegate nogluesite.com to a nameserver under cdn.net: resolving the
	// NS host's address requires a nested resolution through net.
	f.tldZone.MustAdd(dnsmsg.NewNS("nogluesite.com", 24*time.Hour, "ns-glueless.cdn.net"))
	f.provZone.MustAdd(dnsmsg.NewA("ns-glueless.cdn.net", time.Hour, f.provAddr))
	siteZone := dnszone.New("nogluesite.com", soa("ns-glueless.cdn.net"))
	siteZone.MustAdd(dnsmsg.NewA("www.nogluesite.com", time.Minute, netip.MustParseAddr("10.77.0.1")))
	f.provSrv.AddZone(siteZone)

	res, err := f.resolver.Resolve("www.nogluesite.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if addrs := res.Addrs(); len(addrs) != 1 || addrs[0] != netip.MustParseAddr("10.77.0.1") {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestResolveCNAMELoopFails(t *testing.T) {
	f := newFixture(t)
	f.authZone.MustAdd(dnsmsg.NewCNAME("loop1.example.com", time.Minute, "loop2.example.com"))
	f.authZone.MustAdd(dnsmsg.NewCNAME("loop2.example.com", time.Minute, "loop1.example.com"))
	_, err := f.resolver.Resolve("loop1.example.com", dnsmsg.TypeA)
	if !errors.Is(err, ErrServFail) {
		t.Fatalf("err = %v, want ErrServFail on CNAME loop", err)
	}
}

func TestNegativeCaching(t *testing.T) {
	f := newFixture(t)
	if _, err := f.resolver.Resolve("ghost.example.com", dnsmsg.TypeA); !errors.Is(err, ErrNXDomain) {
		t.Fatal("expected NXDOMAIN")
	}
	authBefore := f.authSrv.Queries()
	if _, err := f.resolver.Resolve("ghost.example.com", dnsmsg.TypeA); !errors.Is(err, ErrNXDomain) {
		t.Fatal("expected cached NXDOMAIN")
	}
	if f.authSrv.Queries() != authBefore {
		t.Fatal("negative answer was not cached")
	}
}

func TestClientExchangeDirect(t *testing.T) {
	f := newFixture(t)
	c := f.resolver.Client()
	resp, err := c.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if !resp.Header.Authoritative {
		t.Error("direct authoritative answer missing AA")
	}
}

func TestClientExchangeTimeout(t *testing.T) {
	f := newFixture(t)
	_, err := f.resolver.Client().Exchange(netip.MustParseAddr("192.0.2.250"), "www.example.com", dnsmsg.TypeA)
	if !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestZeroTTLNotCached(t *testing.T) {
	f := newFixture(t)
	if err := f.authZone.Set("www.example.com", dnsmsg.TypeA,
		dnsmsg.NewA("www.example.com", 0, netip.MustParseAddr("10.1.0.1"))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	if err := f.authZone.Set("www.example.com", dnsmsg.TypeA,
		dnsmsg.NewA("www.example.com", 0, netip.MustParseAddr("10.1.0.50"))); err != nil {
		t.Fatal(err)
	}
	res, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.Addrs()[0] != netip.MustParseAddr("10.1.0.50") {
		t.Fatalf("zero-TTL answer was cached: %v", res.Addrs())
	}
}

// TestNegativeTTLFromSOA: RFC 2308 — the NXDOMAIN cache entry expires with
// the zone's SOA minimum, not the resolver default.
func TestNegativeTTLFromSOA(t *testing.T) {
	f := newFixture(t)
	if _, err := f.resolver.Resolve("ghost.example.com", dnsmsg.TypeA); !errors.Is(err, ErrNXDomain) {
		t.Fatal("expected NXDOMAIN")
	}
	// The fixture zone's SOA minimum is 300s (dnsmsg.NewSOA convention via
	// dnszone). Within it, the negative entry serves from cache.
	f.clock.Advance(2 * time.Minute)
	authBefore := f.authSrv.Queries()
	if _, err := f.resolver.Resolve("ghost.example.com", dnsmsg.TypeA); !errors.Is(err, ErrNXDomain) {
		t.Fatal("expected cached NXDOMAIN")
	}
	if f.authSrv.Queries() != authBefore {
		t.Fatal("negative entry not served from cache within SOA minimum")
	}
	// Past the SOA minimum the entry expires and the server is re-queried.
	f.clock.Advance(4 * time.Minute)
	if _, err := f.resolver.Resolve("ghost.example.com", dnsmsg.TypeA); !errors.Is(err, ErrNXDomain) {
		t.Fatal("expected NXDOMAIN")
	}
	if f.authSrv.Queries() == authBefore {
		t.Fatal("negative entry survived past the SOA minimum")
	}
}

// CacheLen returns the number of live cache entries.
func (r *Resolver) CacheLen() int { return r.cache.Len(r.clock.Now()) }
