package netsim

import (
	"encoding/json"
	"net/netip"
	"reflect"
	"testing"
)

func TestCountersExportRestoreRoundTrip(t *testing.T) {
	srv2 := Endpoint{Addr: netip.MustParseAddr("203.0.113.20"), Port: PortHTTP}
	build := func() *Network {
		n := testNet(t)
		n.Register(testServer, RegionVirginia, echoHandler("a"))
		n.Register(srv2, RegionTokyo, echoHandler("b"))
		n.Register(srv2, RegionOregon, echoHandler("b2")) // anycast: second PoP
		return n
	}

	n := build()
	for i := 0; i < 5; i++ {
		if _, err := n.Send(testClient, RegionOregon, testServer, []byte("q")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Send(testClient, RegionSydney, srv2, []byte("q")); err != nil {
		t.Fatal(err)
	}
	st := n.ExportCounters()

	// The state must survive the cursor's JSON encoding.
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 CountersState
	if err := json.Unmarshal(b, &st2); err != nil {
		t.Fatal(err)
	}

	n2 := build()
	if err := n2.RestoreCounters(st2); err != nil {
		t.Fatalf("RestoreCounters: %v", err)
	}
	if !reflect.DeepEqual(n2.ExportCounters(), st) {
		t.Fatalf("restored export = %+v, want %+v", n2.ExportCounters(), st)
	}
	if got := n2.QueryCounts(testServer); got[RegionVirginia] != 5 {
		t.Fatalf("restored QueryCounts = %v, want 5 at virginia", got)
	}
	sends, drops := n2.Stats()
	wantSends, wantDrops := n.Stats()
	if sends != wantSends || drops != wantDrops {
		t.Fatalf("restored sends/drops = %d/%d, want %d/%d", sends, drops, wantSends, wantDrops)
	}
}

func TestRestoreCountersZeroesUnlistedEndpoints(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, echoHandler("a"))
	if _, err := n.Send(testClient, RegionOregon, testServer, []byte("q")); err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreCounters(CountersState{}); err != nil {
		t.Fatalf("RestoreCounters: %v", err)
	}
	if got := n.QueryCounts(testServer); len(got) != 0 {
		t.Fatalf("counters after empty restore = %v, want none", got)
	}
}

func TestRestoreCountersRejectsUnknownEndpoint(t *testing.T) {
	n := testNet(t)
	err := n.RestoreCounters(CountersState{Endpoints: []EndpointCounts{
		{Addr: netip.MustParseAddr("192.0.2.1"), Port: PortDNS, Queries: map[Region]uint64{RegionTokyo: 1}},
	}})
	if err == nil {
		t.Fatal("RestoreCounters accepted an endpoint with no handler")
	}
}

// TestExportCountersAfterRestoreWithoutTraffic: ExportCounters walks
// only the endpoints lookups have reached, so RestoreCounters must mark
// the endpoints it fills as reached. An endpoint restored with counters
// and never sent to again must still export them, next to one that
// served after the restore and one that never served at all.
func TestExportCountersAfterRestoreWithoutTraffic(t *testing.T) {
	quiet := Endpoint{Addr: netip.MustParseAddr("203.0.113.30"), Port: PortDNS}
	idle := Endpoint{Addr: netip.MustParseAddr("203.0.113.31"), Port: PortDNS}
	build := func() *Network {
		n := testNet(t)
		n.Register(testServer, RegionVirginia, echoHandler("a"))
		n.Register(quiet, RegionTokyo, echoHandler("b"))
		n.Register(idle, RegionTokyo, echoHandler("c"))
		return n
	}
	n := build()
	for _, ep := range []Endpoint{testServer, quiet} {
		if _, err := n.Send(testClient, RegionOregon, ep, []byte("q")); err != nil {
			t.Fatal(err)
		}
	}

	n2 := build()
	if err := n2.RestoreCounters(n.ExportCounters()); err != nil {
		t.Fatalf("RestoreCounters: %v", err)
	}
	for _, net := range []*Network{n, n2} {
		if _, err := net.Send(testClient, RegionOregon, testServer, []byte("q")); err != nil {
			t.Fatal(err)
		}
	}
	got, want := n2.ExportCounters(), n.ExportCounters()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("export after restore = %+v, want %+v", got, want)
	}
	if len(got.Endpoints) != 2 || got.Endpoints[1].Addr != quiet.Addr || got.Endpoints[1].Queries[RegionTokyo] != 1 {
		t.Fatalf("export after restore = %+v, want the quiet endpoint's restored count", got.Endpoints)
	}
}
