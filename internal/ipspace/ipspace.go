// Package ipspace models the IPv4 address space of the simulated Internet:
// autonomous systems, their announced prefixes, and longest-prefix-match
// lookups from address to origin AS.
//
// The paper's A-matching step ("does this A record fall inside a DPS
// provider's IP ranges?", §IV-B.2) uses the RouteViews BGP archive to map
// provider AS numbers to IP ranges. This package is that database for the
// simulated world: providers and ISPs register ASes, announce prefixes, and
// the measurement pipeline asks which AS originates a given address.
package ipspace

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"
)

// ASN is an autonomous system number.
type ASN uint32

// String implements fmt.Stringer.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Registry tracks ASes and their announced prefixes and answers
// longest-prefix-match queries. It is safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	ases     map[ASN]bool
	prefixes map[ASN][]netip.Prefix
	// byLen[b] maps the masked b-bit network address to its origin AS.
	// Lookup probes from the longest announced length downward, so a more
	// specific announcement always wins, as in BGP.
	byLen [33]map[netip.Addr]ASN
	// lens caches which prefix lengths have announcements, longest first.
	lens []int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ases:     make(map[ASN]bool),
		prefixes: make(map[ASN][]netip.Prefix),
	}
}

// AddAS registers an autonomous system; re-adding one is a no-op.
func (r *Registry) AddAS(asn ASN) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ases[asn] = true
}

// Announce records that asn originates prefix. The AS must have been added
// first. Announcing the same prefix twice from different ASes is an error
// (the simulated Internet has no MOAS conflicts).
func (r *Registry) Announce(asn ASN, prefix netip.Prefix) error {
	if !prefix.Addr().Is4() {
		return fmt.Errorf("announce %v: only IPv4 prefixes are supported", prefix)
	}
	prefix = prefix.Masked()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ases[asn]; !ok {
		return fmt.Errorf("announce %v: unknown %v", prefix, asn)
	}
	b := prefix.Bits()
	if r.byLen[b] == nil {
		r.byLen[b] = make(map[netip.Addr]ASN)
		r.lens = append(r.lens, b)
		sort.Sort(sort.Reverse(sort.IntSlice(r.lens)))
	}
	if owner, ok := r.byLen[b][prefix.Addr()]; ok && owner != asn {
		return fmt.Errorf("announce %v by %v: already announced by %v", prefix, asn, owner)
	}
	r.byLen[b][prefix.Addr()] = asn
	r.prefixes[asn] = append(r.prefixes[asn], prefix)
	return nil
}

// MustAnnounce is Announce but panics on error. Use in composition roots
// where an announcement conflict is a configuration bug.
func (r *Registry) MustAnnounce(asn ASN, prefix netip.Prefix) {
	if err := r.Announce(asn, prefix); err != nil {
		panic(fmt.Sprintf("ipspace: %v", err))
	}
}

// ASNFor returns the origin AS of addr by longest-prefix match.
func (r *Registry) ASNFor(addr netip.Addr) (ASN, bool) {
	if !addr.Is4() {
		return 0, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, b := range r.lens {
		masked := netip.PrefixFrom(addr, b).Masked().Addr()
		if asn, ok := r.byLen[b][masked]; ok {
			return asn, true
		}
	}
	return 0, false
}

// Contains reports whether addr falls inside any prefix announced by asn.
// This is the primitive behind the paper's A-matching.
func (r *Registry) Contains(asn ASN, addr netip.Addr) bool {
	got, ok := r.ASNFor(addr)
	return ok && got == asn
}
