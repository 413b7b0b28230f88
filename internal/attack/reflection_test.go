package attack

import (
	"math/rand"
	"net/netip"
	"testing"

	"rrdps/internal/ipspace"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// reflectionFixture wires a victim origin (capacity-guarded) and a set of
// open resolvers.
func reflectionFixture(t *testing.T, resolvers, amplification, capacity int) (*fixture, []*OpenResolver) {
	t.Helper()
	f := newFixture(t, 1, capacity) // a tiny botnet placeholder; replaced below
	alloc := ipspace.NewAllocator(netip.MustParseAddr("70.0.0.0"))
	var open []*OpenResolver
	for i := 0; i < resolvers; i++ {
		open = append(open, NewOpenResolver(
			f.net, alloc.NextAddr(), netsim.RegionVirginia, amplification, netsim.PortHTTP))
	}
	return f, open
}

// TestReflectionAmplifiesSmallBotnet: a botnet far too small to overwhelm
// the origin directly takes it down through 40x amplification.
func TestReflectionAmplifiesSmallBotnet(t *testing.T) {
	f, open := reflectionFixture(t, 4, 40, 50)
	botAlloc := ipspace.NewAllocator(netip.MustParseAddr("80.0.0.0"))
	smallBotnet := NewBotnet(5, botAlloc.NextAddr, rand.New(rand.NewSource(3)))

	// Direct flood with the same 5 bots: 50 requests/tick ≤ capacity+probe
	// headroom would still overload slightly; use the reflection scenario
	// first and then compare with the direct one below at equal volume.
	scenario := ReflectionScenario{
		Network:        f.net,
		VictimAddr:     f.originAddr,
		VictimHost:     testHost,
		Resolvers:      open,
		Botnet:         smallBotnet,
		RequestsPerBot: 3, // 15 spoofed queries * 40x = 600 units/tick
		Ticks:          4,
		LegitClient:    f.legit,
		LegitAddr:      f.edgeAddr,
		Tickers:        []interface{ Tick() }{f.scrubber, f.guard},
	}
	res := scenario.Run()
	if res.Availability() != 0 {
		t.Fatalf("availability = %.2f under 40x amplification, want 0", res.Availability())
	}
	totalReflected := 0
	for _, r := range open {
		totalReflected += r.Reflected()
	}
	if want := 5 * 3 * 4 * 40; totalReflected != want {
		t.Fatalf("reflected units = %d, want %d", totalReflected, want)
	}
	if res.AttackSent != 5*3*4 {
		t.Fatalf("attack sent = %d", res.AttackSent)
	}
}

// TestSameBotnetDirectFloodIsAbsorbed: without amplification the same
// small botnet cannot hurt the origin.
func TestSameBotnetDirectFloodIsAbsorbed(t *testing.T) {
	f := newFixture(t, 5, 50)
	res := Scenario{
		Network:        f.net,
		TargetAddr:     f.originAddr,
		TargetHost:     testHost,
		Botnet:         f.botnet,
		RequestsPerBot: 3, // 15 requests/tick, well under capacity 50
		Ticks:          4,
		LegitClient:    f.legit,
		LegitAddr:      f.edgeAddr,
		Tickers:        []interface{ Tick() }{f.scrubber, f.guard},
	}.Run()
	if res.Availability() != 1.0 {
		t.Fatalf("availability = %.2f for sub-capacity direct flood", res.Availability())
	}
	if f.guard.OverloadTicks() != 0 {
		t.Fatalf("overload ticks = %d", f.guard.OverloadTicks())
	}
}

func TestOpenResolverReflectsToClaimedSource(t *testing.T) {
	net := netsim.New(netsim.Config{Clock: simtime.NewSimulated()})
	var landed []netip.Addr
	sink := netsim.HandlerFunc(func(req netsim.Request) ([]byte, error) {
		landed = append(landed, req.From)
		return []byte("ok"), nil
	})
	victim := netip.MustParseAddr("198.18.0.99")
	net.Register(netsim.Endpoint{Addr: victim, Port: netsim.PortHTTP}, netsim.RegionVirginia, sink)

	resolver := NewOpenResolver(net, netip.MustParseAddr("70.0.0.1"), netsim.RegionOregon, 7, netsim.PortHTTP)
	// A bot spoofing the victim's address.
	_, err := net.Send(victim, netsim.RegionTokyo, netsim.Endpoint{Addr: resolver.Addr(), Port: netsim.PortDNS}, []byte("q"))
	if err == nil {
		t.Fatal("spoofing bot got a response; reflection should answer the victim instead")
	}
	if len(landed) != 7 {
		t.Fatalf("victim received %d units, want 7", len(landed))
	}
	for _, from := range landed {
		if from != resolver.Addr() {
			t.Fatalf("amplified traffic from %v, want resolver %v", from, resolver.Addr())
		}
	}
	if resolver.Reflected() != 7 {
		t.Fatalf("Reflected() = %d", resolver.Reflected())
	}
}

// Reflected returns how many response units the resolver has emitted.
func (r *OpenResolver) Reflected() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reflected
}
