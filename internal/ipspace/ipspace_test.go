package ipspace

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func mustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func TestASNForLongestPrefixWins(t *testing.T) {
	r := NewRegistry()
	r.AddAS(100)
	r.AddAS(200)
	r.MustAnnounce(100, mustPrefix("10.0.0.0/8"))
	r.MustAnnounce(200, mustPrefix("10.1.0.0/16"))

	tests := []struct {
		addr string
		want ASN
	}{
		{"10.0.0.1", 100},
		{"10.1.2.3", 200},
		{"10.2.0.1", 100},
		{"10.1.255.255", 200},
	}
	for _, tt := range tests {
		got, ok := r.ASNFor(netip.MustParseAddr(tt.addr))
		if !ok || got != tt.want {
			t.Errorf("ASNFor(%s) = %v,%v, want %v", tt.addr, got, ok, tt.want)
		}
	}
}

func TestASNForMiss(t *testing.T) {
	r := NewRegistry()
	r.AddAS(100)
	r.MustAnnounce(100, mustPrefix("10.0.0.0/8"))
	if _, ok := r.ASNFor(netip.MustParseAddr("11.0.0.1")); ok {
		t.Error("ASNFor outside any prefix returned ok")
	}
	if _, ok := r.ASNFor(netip.MustParseAddr("::1")); ok {
		t.Error("ASNFor IPv6 returned ok")
	}
}

func TestAnnounceUnknownAS(t *testing.T) {
	r := NewRegistry()
	if err := r.Announce(42, mustPrefix("10.0.0.0/8")); err == nil {
		t.Error("Announce for unregistered AS succeeded")
	}
}

func TestAnnounceConflict(t *testing.T) {
	r := NewRegistry()
	r.AddAS(1)
	r.AddAS(2)
	r.MustAnnounce(1, mustPrefix("10.0.0.0/16"))
	if err := r.Announce(2, mustPrefix("10.0.0.0/16")); err == nil {
		t.Error("conflicting announcement succeeded")
	}
	// Same AS re-announcing is fine.
	if err := r.Announce(1, mustPrefix("10.0.0.0/16")); err != nil {
		t.Errorf("re-announcement by owner failed: %v", err)
	}
}

func TestAnnounceIPv6Rejected(t *testing.T) {
	r := NewRegistry()
	r.AddAS(1)
	if err := r.Announce(1, netip.MustParsePrefix("2001:db8::/32")); err == nil {
		t.Error("IPv6 announcement succeeded")
	}
}

func TestContains(t *testing.T) {
	r := NewRegistry()
	r.AddAS(13335)
	r.AddAS(19551)
	r.MustAnnounce(13335, mustPrefix("104.16.0.0/12"))
	r.MustAnnounce(19551, mustPrefix("199.83.128.0/21"))

	if !r.Contains(13335, netip.MustParseAddr("104.16.1.1")) {
		t.Error("cloudflare addr not matched")
	}
	if r.Contains(13335, netip.MustParseAddr("199.83.128.5")) {
		t.Error("incapsula addr matched cloudflare")
	}
	if r.Contains(19551, netip.MustParseAddr("8.8.8.8")) {
		t.Error("unannounced addr matched")
	}
}

func TestPrefixesOfIsCopy(t *testing.T) {
	r := NewRegistry()
	r.AddAS(1)
	r.MustAnnounce(1, mustPrefix("10.0.0.0/16"))
	got := r.PrefixesOf(1)
	got[0] = mustPrefix("192.168.0.0/16")
	if r.PrefixesOf(1)[0] != mustPrefix("10.0.0.0/16") {
		t.Error("PrefixesOf leaked internal slice")
	}
}

func TestRegistryLen(t *testing.T) {
	r := NewRegistry()
	r.AddAS(1)
	r.MustAnnounce(1, mustPrefix("10.0.0.0/16"))
	r.MustAnnounce(1, mustPrefix("10.1.0.0/16"))
	r.MustAnnounce(1, mustPrefix("10.2.0.0/24"))
	if got := r.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
}

// Property: for every announced prefix, every sampled address inside it maps
// back to the announcing AS (absent a more specific announcement).
func TestASNForQuickProperty(t *testing.T) {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(7))
	type owned struct {
		prefix netip.Prefix
		asn    ASN
	}
	var all []owned
	alloc := NewAllocator(netip.MustParseAddr("20.0.0.0"))
	for i := 0; i < 50; i++ {
		asn := ASN(1000 + i)
		r.AddAS(asn)
		bits := 12 + rng.Intn(13) // /12 .. /24
		p := alloc.NextPrefix(bits)
		r.MustAnnounce(asn, p)
		all = append(all, owned{p, asn})
	}
	f := func(pick uint8, off uint32) bool {
		o := all[int(pick)%len(all)]
		n := int(off) % HostCapacity(o.prefix)
		addr := NthAddr(o.prefix, n)
		got, ok := r.ASNFor(addr)
		return ok && got == o.asn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// PrefixesOf returns a copy of the prefixes announced by asn.
func (r *Registry) PrefixesOf(asn ASN) []netip.Prefix {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]netip.Prefix, len(r.prefixes[asn]))
	copy(out, r.prefixes[asn])
	return out
}

// Len returns the total number of announced prefixes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for _, b := range r.lens {
		total += len(r.byLen[b])
	}
	return total
}
