package netsim

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"rrdps/internal/simtime"
)

func limitTestNet(t *testing.T) (*Network, *simtime.Simulated, Endpoint) {
	t.Helper()
	clock := simtime.NewSimulated()
	n := New(Config{Clock: clock})
	ep := Endpoint{Addr: netip.MustParseAddr("10.0.0.1"), Port: PortDNS}
	n.Register(ep, RegionOregon, HandlerFunc(func(req Request) ([]byte, error) {
		return []byte("ok"), nil
	}))
	return n, clock, ep
}

func TestLimitPerSource(t *testing.T) {
	n, _, ep := limitTestNet(t)
	n.SetLimit(ep, LimitConfig{PerSource: 3})

	alice := netip.MustParseAddr("10.9.0.1")
	bob := netip.MustParseAddr("10.9.0.2")
	for i := 0; i < 3; i++ {
		if _, err := n.Send(alice, RegionOregon, ep, []byte("q")); err != nil {
			t.Fatalf("send %d within budget: %v", i, err)
		}
	}
	if _, err := n.Send(alice, RegionOregon, ep, []byte("q")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("over-budget send: got %v, want ErrTimeout", err)
	}
	// A different source has its own budget.
	if _, err := n.Send(bob, RegionOregon, ep, []byte("q")); err != nil {
		t.Fatalf("other source within budget: %v", err)
	}
	if got := n.limitDrops.Load(); got != 1 {
		t.Fatalf("LimitDrops = %d, want 1", got)
	}
}

func TestLimitCapacity(t *testing.T) {
	n, _, ep := limitTestNet(t)
	n.SetLimit(ep, LimitConfig{Capacity: 5})

	admitted, dropped := 0, 0
	for i := 0; i < 8; i++ {
		src := netip.MustParseAddr("10.9.0.1")
		if i%2 == 1 {
			src = netip.MustParseAddr("10.9.0.2")
		}
		if _, err := n.Send(src, RegionOregon, ep, []byte("q")); err != nil {
			dropped++
		} else {
			admitted++
		}
	}
	if admitted != 5 || dropped != 3 {
		t.Fatalf("admitted/dropped = %d/%d, want 5/3", admitted, dropped)
	}
}

func TestLimitWindowReset(t *testing.T) {
	n, clock, ep := limitTestNet(t)
	n.SetLimit(ep, LimitConfig{Window: time.Hour, PerSource: 1, Capacity: 1})

	src := netip.MustParseAddr("10.9.0.1")
	if _, err := n.Send(src, RegionOregon, ep, []byte("q")); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if _, err := n.Send(src, RegionOregon, ep, []byte("q")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhausted window: got %v, want ErrTimeout", err)
	}
	// The next window refills both budgets.
	clock.AdvanceDays(1)
	if _, err := n.Send(src, RegionOregon, ep, []byte("q")); err != nil {
		t.Fatalf("fresh window: %v", err)
	}
}

func TestLimitRemovalAndUnlimitedEndpoints(t *testing.T) {
	n, _, ep := limitTestNet(t)
	other := Endpoint{Addr: netip.MustParseAddr("10.0.0.2"), Port: PortDNS}
	n.Register(other, RegionOregon, HandlerFunc(func(req Request) ([]byte, error) {
		return []byte("ok"), nil
	}))
	n.SetLimit(ep, LimitConfig{PerSource: 1})

	src := netip.MustParseAddr("10.9.0.1")
	if _, err := n.Send(src, RegionOregon, ep, []byte("q")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	// The unlimited endpoint never throttles.
	for i := 0; i < 10; i++ {
		if _, err := n.Send(src, RegionOregon, other, []byte("q")); err != nil {
			t.Fatalf("unlimited endpoint send %d: %v", i, err)
		}
	}
	// Removing the limiter restores the endpoint.
	n.SetLimit(ep, LimitConfig{})
	if _, err := n.Send(src, RegionOregon, ep, []byte("q")); err != nil {
		t.Fatalf("after removal: %v", err)
	}
	if got := n.Limit(ep); got.Enabled() {
		t.Fatalf("Limit after removal = %+v, want disabled", got)
	}
}

func TestLimitConfigDefaults(t *testing.T) {
	lc := LimitConfig{PerSource: 2}.withDefaults()
	if lc.Window != time.Hour {
		t.Fatalf("default window = %v, want 1h", lc.Window)
	}
	if (LimitConfig{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
}
