package netsim

import (
	"errors"
	"net/netip"
	"reflect"
	"sync"
	"testing"

	"rrdps/internal/simtime"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	return New(Config{Clock: simtime.NewSimulated()})
}

func echoHandler(tag string) Handler {
	return HandlerFunc(func(req Request) ([]byte, error) {
		return append([]byte(tag+":"), req.Payload...), nil
	})
}

var (
	testClient = netip.MustParseAddr("198.51.100.7")
	testServer = Endpoint{Addr: netip.MustParseAddr("203.0.113.10"), Port: PortDNS}
)

func TestSendUnicast(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, echoHandler("srv"))
	got, err := n.Send(testClient, RegionOregon, testServer, []byte("hello"))
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if string(got) != "srv:hello" {
		t.Fatalf("response = %q, want %q", got, "srv:hello")
	}
}

func TestSendUnreachable(t *testing.T) {
	n := testNet(t)
	_, err := n.Send(testClient, RegionOregon, testServer, []byte("x"))
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestDeregisterMakesUnreachable(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, echoHandler("srv"))
	n.Deregister(testServer)
	_, err := n.Send(testClient, RegionOregon, testServer, []byte("x"))
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestBlackholedEndpointTimesOut(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, echoHandler("srv"))
	n.SetBlackholed(testServer, true)
	if _, err := n.Send(testClient, RegionOregon, testServer, []byte("x")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	n.SetBlackholed(testServer, false)
	if _, err := n.Send(testClient, RegionOregon, testServer, []byte("x")); err != nil {
		t.Fatalf("after restore, Send: %v", err)
	}
}

func TestNilResponseIsTimeout(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, HandlerFunc(func(Request) ([]byte, error) {
		return nil, nil // silently ignore, like a DPS NS for an unknown zone
	}))
	_, err := n.Send(testClient, RegionOregon, testServer, []byte("x"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestAnycastRoutesToNearestPoP(t *testing.T) {
	n := testNet(t)
	for _, r := range []Region{RegionOregon, RegionLondon, RegionTokyo} {
		region := r
		n.RegisterAnycast(testServer, region, HandlerFunc(func(req Request) ([]byte, error) {
			return []byte(region.String()), nil
		}))
	}
	tests := []struct {
		from Region
		want string
	}{
		{RegionOregon, "oregon"},
		{RegionVirginia, "oregon"},
		{RegionFrankfurt, "london"},
		{RegionSydney, "tokyo"},
		{RegionSingapore, "tokyo"},
	}
	for _, tt := range tests {
		got, err := n.Send(testClient, tt.from, testServer, nil)
		if err != nil {
			t.Fatalf("Send from %v: %v", tt.from, err)
		}
		if string(got) != tt.want {
			t.Errorf("from %v routed to %q, want %q", tt.from, got, tt.want)
		}
	}
}

func TestAnycastPerPoPAccounting(t *testing.T) {
	n := testNet(t)
	for _, r := range []Region{RegionOregon, RegionLondon} {
		n.RegisterAnycast(testServer, r, echoHandler(r.String()))
	}
	for i := 0; i < 3; i++ {
		if _, err := n.Send(testClient, RegionOregon, testServer, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Send(testClient, RegionFrankfurt, testServer, nil); err != nil {
		t.Fatal(err)
	}
	if got := n.QueryCount(testServer, RegionOregon); got != 3 {
		t.Errorf("oregon PoP count = %d, want 3", got)
	}
	if got := n.QueryCount(testServer, RegionLondon); got != 1 {
		t.Errorf("london PoP count = %d, want 1", got)
	}
	counts := n.QueryCounts(testServer)
	if len(counts) != 2 || counts[RegionOregon] != 3 || counts[RegionLondon] != 1 {
		t.Errorf("QueryCounts = %v", counts)
	}
}

func TestRegisterReplacesUnicastHandler(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, echoHandler("old"))
	n.Register(testServer, RegionVirginia, echoHandler("new"))
	got, err := n.Send(testClient, RegionOregon, testServer, []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new:p" {
		t.Fatalf("response = %q, want from replacement handler", got)
	}
}

func TestLossRateDropsEverything(t *testing.T) {
	n := testNet(t)
	n.SetFaults(FaultConfig{Seed: 1, LossRate: 0.999999999})
	n.Register(testServer, RegionVirginia, echoHandler("srv"))
	if _, err := n.Send(testClient, RegionOregon, testServer, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	sends, drops := n.Stats()
	if sends != 1 || drops != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", sends, drops)
	}
	if fs := n.FaultStats(); fs.UniformDrops != 1 {
		t.Fatalf("uniform drops = %d, want 1", fs.UniformDrops)
	}
}

func TestReachable(t *testing.T) {
	n := testNet(t)
	if n.Reachable(testServer) {
		t.Fatal("unregistered endpoint reported reachable")
	}
	n.Register(testServer, RegionVirginia, echoHandler("srv"))
	if !n.Reachable(testServer) {
		t.Fatal("registered endpoint reported unreachable")
	}
	n.SetBlackholed(testServer, true)
	if n.Reachable(testServer) {
		t.Fatal("blackholed endpoint reported reachable")
	}
}

func TestConcurrentSends(t *testing.T) {
	n := testNet(t)
	n.Register(testServer, RegionVirginia, echoHandler("srv"))
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Send(testClient, RegionOregon, testServer, []byte("x")); err != nil {
				t.Errorf("Send: %v", err)
			}
		}()
	}
	wg.Wait()
	sends, drops := n.Stats()
	if sends != 64 || drops != 0 {
		t.Fatalf("stats = (%d, %d), want (64, 0)", sends, drops)
	}
}

func TestNewPanicsWithoutClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without clock did not panic")
		}
	}()
	New(Config{})
}

// TestExchangeErrorText pins every failed-exchange message byte for byte
// and the sentinel errors.Is finds behind it.
func TestExchangeErrorText(t *testing.T) {
	n := testNet(t)
	ignored := Endpoint{Addr: netip.MustParseAddr("203.0.113.11"), Port: PortDNS}
	failing := Endpoint{Addr: netip.MustParseAddr("203.0.113.12"), Port: PortDNS}
	n.Register(ignored, RegionVirginia, HandlerFunc(func(Request) ([]byte, error) { return nil, nil }))
	handlerErr := errors.New("handler broke")
	n.Register(failing, RegionVirginia, HandlerFunc(func(Request) ([]byte, error) { return nil, handlerErr }))
	n.Register(testServer, RegionVirginia, echoHandler("srv"))
	n.SetBlackholed(testServer, true)

	for _, tc := range []struct {
		to       Endpoint
		want     string
		sentinel error
	}{
		{testServer, "sending to 203.0.113.10:53: netsim: request timed out", ErrTimeout},
		{ignored, "no answer from 203.0.113.11:53: netsim: request timed out", ErrTimeout},
		{failing, "serving 203.0.113.12:53: handler broke", handlerErr},
		{Endpoint{Addr: netip.MustParseAddr("203.0.113.99"), Port: PortDNS},
			"sending to 203.0.113.99:53: netsim: destination unreachable", ErrUnreachable},
	} {
		_, _, err := n.Exchange(testClient, RegionOregon, tc.to, []byte("q"), nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Exchange to %s: err = %v, want %q", tc.to, err, tc.want)
		}
		if !errors.Is(err, tc.sentinel) {
			t.Errorf("Exchange to %s: errors.Is(%v, %v) = false", tc.to, err, tc.sentinel)
		}
	}
}

// TestParallelCountersMatchSerial sends the same multiset of requests to
// two identically wired fabrics, one serially and one from many
// goroutines, over anycast and unicast endpoints, a deterministic fault
// plan and a per-source rate limit. The lock-free counters must export
// identically: sends, drops, limiter drops, fault causes and every
// per-PoP count.
func TestParallelCountersMatchSerial(t *testing.T) {
	anycast := Endpoint{Addr: netip.MustParseAddr("203.0.113.20"), Port: PortDNS}
	limited := Endpoint{Addr: netip.MustParseAddr("203.0.113.21"), Port: PortDNS}
	build := func() *Network {
		n := testNet(t)
		for _, r := range []Region{RegionVirginia, RegionLondon, RegionTokyo, RegionSydney} {
			n.RegisterAnycast(anycast, r, echoHandler(r.String()))
		}
		n.Register(testServer, RegionFrankfurt, echoHandler("uni"))
		n.Register(limited, RegionOregon, echoHandler("lim"))
		n.SetLimit(limited, LimitConfig{PerSource: 7})
		n.SetFaults(FaultConfig{Seed: 5, LossRate: 0.2, BurstRate: 0.5, FlakyRate: 0.5, CorruptRate: 0.1})
		return n
	}
	type send struct {
		from   netip.Addr
		region Region
		to     Endpoint
		body   []byte
	}
	var sends []send
	regions := []Region{RegionOregon, RegionLondon, RegionSingapore, RegionSaoPaulo, RegionUnknown}
	for i := 0; i < 600; i++ {
		to := []Endpoint{anycast, testServer, limited}[i%3]
		sends = append(sends, send{
			from:   netip.AddrFrom4([4]byte{198, 51, 100, byte(i % 5)}),
			region: regions[i%len(regions)],
			to:     to,
			body:   []byte{byte(i), byte(i >> 8)},
		})
	}

	serial, parallel := build(), build()
	for _, s := range sends {
		serial.Exchange(s.from, s.region, s.to, s.body, nil)
	}
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(sends); i += workers {
				s := sends[i]
				parallel.Exchange(s.from, s.region, s.to, s.body, nil)
			}
		}(w)
	}
	wg.Wait()

	if got, want := parallel.ExportCounters(), serial.ExportCounters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel counters %+v\nserial counters   %+v", got, want)
	}
	if got, want := parallel.FaultStats(), serial.FaultStats(); got != want {
		t.Fatalf("parallel fault stats %+v, serial %+v", got, want)
	}
	if serial.limitDrops.Load() == 0 || serial.FaultStats().Corrupted == 0 {
		t.Fatal("the send mix no longer exercises the limiter and corruption")
	}
}

// QueryCount returns how many requests the endpoint's PoP in region has
// served. For unicast endpoints, use the registration region.
func (n *Network) QueryCount(ep Endpoint, region Region) uint64 {
	st := n.lookup(ep)
	if st == nil || !region.indexable() {
		return 0
	}
	if q := st.queries.Load(); q != nil {
		return q[region].Load()
	}
	return 0
}

// Reachable reports whether at least one handler is registered at ep and it
// is not blackholed.
func (n *Network) Reachable(ep Endpoint) bool {
	st := n.lookup(ep)
	if st == nil {
		return false
	}
	rt := st.route.Load()
	return rt != nil && len(rt.instances) > 0 && !rt.blackholed
}
