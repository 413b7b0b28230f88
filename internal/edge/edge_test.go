package edge

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"rrdps/internal/httpsim"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

type fixture struct {
	clock  *simtime.Simulated
	net    *netsim.Network
	origin *httpsim.Origin
	edge   *Edge
	client *httpsim.Client

	originAddr netip.Addr
	edgeAddr   netip.Addr
}

func newFixture(t *testing.T, cacheTTL time.Duration, scrub Scrubber) *fixture {
	t.Helper()
	f := &fixture{
		clock:      simtime.NewSimulated(),
		originAddr: netip.MustParseAddr("10.60.0.1"),
		edgeAddr:   netip.MustParseAddr("104.16.5.5"),
	}
	f.net = netsim.New(netsim.Config{Clock: f.clock})
	f.origin = httpsim.NewOrigin(httpsim.OriginConfig{
		Page: httpsim.Page{Title: "Site", Meta: map[string]string{"description": "d"}},
	})
	f.net.Register(netsim.Endpoint{Addr: f.originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, f.origin)

	f.edge = New(Config{
		Network:  f.net,
		Addr:     f.edgeAddr,
		Region:   netsim.RegionOregon,
		Clock:    f.clock,
		CacheTTL: cacheTTL,
		Scrubber: scrub,
	})
	f.edge.SetBackend("www.site.com", f.originAddr)
	f.net.Register(netsim.Endpoint{Addr: f.edgeAddr, Port: netsim.PortHTTP}, netsim.RegionOregon, f.edge)

	f.client = httpsim.NewClient(f.net, netip.MustParseAddr("198.51.100.10"), netsim.RegionOregon)
	return f
}

func TestEdgeProxiesToOrigin(t *testing.T) {
	f := newFixture(t, 0, nil)
	resp, err := f.client.Get(f.edgeAddr, "www.site.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := httpsim.ParsePage(resp.Body).Title; got != "Site" {
		t.Fatalf("title = %q", got)
	}
	if f.origin.Hits() != 1 {
		t.Fatalf("origin hits = %d, want 1", f.origin.Hits())
	}
}

func TestEdgeUnknownHost502(t *testing.T) {
	f := newFixture(t, 0, nil)
	resp, err := f.client.Get(f.edgeAddr, "www.unknown.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}

func TestEdgeCaching(t *testing.T) {
	f := newFixture(t, time.Hour, nil)
	for i := 0; i < 5; i++ {
		if _, err := f.client.Get(f.edgeAddr, "www.site.com", "/"); err != nil {
			t.Fatal(err)
		}
	}
	if f.origin.Hits() != 1 {
		t.Fatalf("origin hits = %d, want 1 (cache)", f.origin.Hits())
	}
	served, _, misses := f.edge.Stats()
	if served != 5 || misses != 1 {
		t.Fatalf("stats = served %d misses %d", served, misses)
	}
	// After TTL the origin is re-fetched.
	f.clock.Advance(2 * time.Hour)
	if _, err := f.client.Get(f.edgeAddr, "www.site.com", "/"); err != nil {
		t.Fatal(err)
	}
	if f.origin.Hits() != 2 {
		t.Fatalf("origin hits = %d after TTL, want 2", f.origin.Hits())
	}
}

func TestEdgeServesClientACLOrigin(t *testing.T) {
	// Origin that only answers its DPS edge; direct fetch fails, edge works.
	f := newFixture(t, 0, nil)
	f.origin.SetAllowedClients([]netip.Addr{f.edgeAddr})

	direct, err := f.client.Get(f.originAddr, "www.site.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if direct.StatusCode != 403 {
		t.Fatalf("direct status = %d, want 403", direct.StatusCode)
	}
	viaEdge, err := f.client.Get(f.edgeAddr, "www.site.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if viaEdge.StatusCode != 200 {
		t.Fatalf("edge status = %d, want 200", viaEdge.StatusCode)
	}
}

func TestEdgeScrubberDropsTraffic(t *testing.T) {
	bot := netip.MustParseAddr("198.51.100.66")
	scrub := ScrubberFunc(func(from netip.Addr, host string) bool { return from != bot })
	f := newFixture(t, 0, scrub)

	if _, err := f.client.Get(f.edgeAddr, "www.site.com", "/"); err != nil {
		t.Fatalf("legit client blocked: %v", err)
	}
	botClient := httpsim.NewClient(f.net, bot, netsim.RegionTokyo)
	_, err := botClient.Get(f.edgeAddr, "www.site.com", "/")
	if !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("bot err = %v, want ErrTimeout (scrubbed)", err)
	}
	_, scrubbed, _ := f.edge.Stats()
	if scrubbed != 1 {
		t.Fatalf("scrubbed = %d, want 1", scrubbed)
	}
}

func TestEdgeRemoveBackend(t *testing.T) {
	f := newFixture(t, time.Hour, nil)
	if _, err := f.client.Get(f.edgeAddr, "www.site.com", "/"); err != nil {
		t.Fatal(err)
	}
	f.edge.RemoveBackend("www.site.com")
	if _, ok := f.edge.Backend("www.site.com"); ok {
		t.Fatal("backend still present")
	}
	resp, err := f.client.Get(f.edgeAddr, "www.site.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502 after removal (cache must be evicted too)", resp.StatusCode)
	}
}

func TestEdgeOriginDown502(t *testing.T) {
	f := newFixture(t, 0, nil)
	f.net.Deregister(netsim.Endpoint{Addr: f.originAddr, Port: netsim.PortHTTP})
	resp, err := f.client.Get(f.edgeAddr, "www.site.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 502 {
		t.Fatalf("status = %d, want 502", resp.StatusCode)
	}
}

func TestEdgeMalformedRequest400(t *testing.T) {
	f := newFixture(t, 0, nil)
	raw, err := f.net.Send(netip.MustParseAddr("198.51.100.10"), netsim.RegionOregon,
		netsim.Endpoint{Addr: f.edgeAddr, Port: netsim.PortHTTP}, []byte("not http"))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := httpsim.DecodeResponse(raw)
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestEdgeErrorResponsesNotCached(t *testing.T) {
	f := newFixture(t, time.Hour, nil)
	f.net.Deregister(netsim.Endpoint{Addr: f.originAddr, Port: netsim.PortHTTP})
	if resp, _ := f.client.Get(f.edgeAddr, "www.site.com", "/"); resp.StatusCode != 502 {
		t.Fatal("expected 502 while origin down")
	}
	// Origin comes back; edge must not keep serving the cached error.
	f.net.Register(netsim.Endpoint{Addr: f.originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, f.origin)
	resp, err := f.client.Get(f.edgeAddr, "www.site.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 (502 must not be cached)", resp.StatusCode)
	}
}

// Backend returns the origin configured for host.
func (e *Edge) Backend(host string) (netip.Addr, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	a, ok := e.backends[host]
	return a, ok
}

// Stats reports the edge's counters: requests served (including cache
// hits), requests dropped by scrubbing, and origin fetches (cache misses).
func (e *Edge) Stats() (served, scrubbed, originFetches uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.served, e.scrubbed, e.misses
}
