package multicdn

import (
	"errors"
	"math/rand"
	"net/netip"
	"rrdps/internal/dnsmsg"
	"sort"
	"testing"

	"rrdps/internal/dps"
	"rrdps/internal/ipspace"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// newManager wires a bare manager over two real providers.
func newManager(t *testing.T) (*Manager, *netsim.Network) {
	t.Helper()
	clock := simtime.NewSimulated()
	net := netsim.New(netsim.Config{Clock: clock})
	alloc := ipspace.NewAllocator(netip.MustParseAddr("20.0.0.0"))
	registry := ipspace.NewRegistry()
	var providers []*dps.Provider
	for i, key := range []dps.ProviderKey{dps.Fastly, dps.Cloudfront} {
		profile, _ := dps.ProfileFor(key)
		providers = append(providers, dps.New(dps.Config{
			Profile:  profile,
			Network:  net,
			Clock:    clock,
			Alloc:    alloc,
			Registry: registry,
			Rand:     rand.New(rand.NewSource(int64(i + 1))),
		}))
	}
	m := New(Config{
		Network:   net,
		Alloc:     alloc,
		Registry:  registry,
		Rand:      rand.New(rand.NewSource(9)),
		Providers: providers,
	})
	return m, net
}

func TestManagerEnroll(t *testing.T) {
	m, _ := newManager(t)
	origin := netip.MustParseAddr("198.18.0.5")
	token, err := m.Enroll("shop.com", origin)
	if err != nil {
		t.Fatal(err)
	}
	if !token.ContainsSubstring("cedexis") {
		t.Fatalf("token = %v", token)
	}
	if got := m.Customers(); len(got) != 1 || got[0] != "shop.com" {
		t.Fatalf("customers = %v", got)
	}
	target, ok := m.CurrentTarget("shop.com")
	if !ok {
		t.Fatal("no current target")
	}
	if !target.ContainsSubstring("fastly") && !target.ContainsSubstring("cloudfront") {
		t.Fatalf("target = %v", target)
	}
}

func TestManagerEnrollTwice(t *testing.T) {
	m, _ := newManager(t)
	origin := netip.MustParseAddr("198.18.0.5")
	if _, err := m.Enroll("shop.com", origin); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Enroll("shop.com", origin); !errors.Is(err, ErrAlreadyEnrolled) {
		t.Fatalf("err = %v, want ErrAlreadyEnrolled", err)
	}
}

func TestManagerFlipAll(t *testing.T) {
	m, _ := newManager(t)
	origin := netip.MustParseAddr("198.18.0.5")
	if _, err := m.Enroll("shop.com", origin); err != nil {
		t.Fatal(err)
	}
	before, _ := m.CurrentTarget("shop.com")
	if n := m.FlipAll(1.0); n != 1 {
		t.Fatalf("flipped = %d", n)
	}
	after, _ := m.CurrentTarget("shop.com")
	if before == after {
		t.Fatal("FlipAll(1.0) did not change the target")
	}
	if n := m.FlipAll(0); n != 0 {
		t.Fatalf("FlipAll(0) flipped %d", n)
	}
}

func TestManagerUnknownTarget(t *testing.T) {
	m, _ := newManager(t)
	if _, ok := m.CurrentTarget("ghost.com"); ok {
		t.Fatal("unknown customer has a target")
	}
}

// CurrentTarget returns the provider CNAME target apex currently routes to.
func (m *Manager) CurrentTarget(apex dnsmsg.Name) (dnsmsg.Name, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.customers[apex]
	if !ok {
		return "", false
	}
	return c.targets[c.current], true
}

// Customers returns the enrolled apexes, sorted.
func (m *Manager) Customers() []dnsmsg.Name {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]dnsmsg.Name, 0, len(m.customers))
	for apex := range m.customers {
		out = append(out, apex)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
