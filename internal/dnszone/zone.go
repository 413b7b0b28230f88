// Package dnszone models authoritative DNS zone data and the RFC 1034
// lookup algorithm over it: answers, CNAME chains, delegation referrals,
// NODATA, and NXDOMAIN.
//
// Zones are mutable because the simulated world constantly rewrites them:
// website admins repoint NS records at DPS providers, providers provision
// and purge customer records, and the residual-resolution vulnerability is
// literally a zone entry that outlives its welcome.
package dnszone

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/dnsmsg"
)

// soaTTL is the TTL attached to SOA records served in authority sections;
// it doubles as the negative-caching TTL.
const soaTTL = 900 * time.Second

// ResultKind classifies the outcome of a zone lookup.
type ResultKind int

// Lookup outcomes.
const (
	// KindAnswer: records of the requested type exist at the name.
	KindAnswer ResultKind = iota + 1
	// KindCNAME: the name is an alias; Records holds the CNAME chain
	// (and, if the chain ends inside this zone, the final answer).
	KindCNAME
	// KindReferral: the name falls under a delegated child zone; Records
	// holds the NS RRset of the cut and Glue any in-zone A records for
	// the delegated nameservers.
	KindReferral
	// KindNoData: the name exists but has no records of the type.
	KindNoData
	// KindNXDomain: the name does not exist in the zone.
	KindNXDomain
)

// String implements fmt.Stringer.
func (k ResultKind) String() string {
	switch k {
	case KindAnswer:
		return "answer"
	case KindCNAME:
		return "cname"
	case KindReferral:
		return "referral"
	case KindNoData:
		return "nodata"
	case KindNXDomain:
		return "nxdomain"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// Result is the outcome of Zone.Lookup.
type Result struct {
	Kind    ResultKind
	Records []dnsmsg.RR
	Glue    []dnsmsg.RR
	// SOA is the zone's SOA record, populated for NoData and NXDomain so
	// servers can fill the authority section.
	SOA dnsmsg.RR
}

// Zone holds the records of one DNS zone. It is safe for concurrent use.
//
// Every mutator bumps the serial after changing the records, under the
// write lock: an unchanged serial means unchanged contents, and servers
// reuse encoded answers on that premise. A new mutator must bump it too.
type Zone struct {
	origin dnsmsg.Name

	// serial is read without the lock (Serial is an atomic load) and
	// written only under mu.
	serial atomic.Uint32

	mu      sync.RWMutex
	rrsets  map[dnsmsg.Name]map[dnsmsg.Type][]dnsmsg.RR
	soa     dnsmsg.RR
	hasNode map[dnsmsg.Name]bool // every name with records or with records below it
}

// New creates a zone rooted at origin with the given SOA parameters.
func New(origin dnsmsg.Name, soa dnsmsg.SOAData) *Zone {
	z := &Zone{
		origin:  origin,
		rrsets:  make(map[dnsmsg.Name]map[dnsmsg.Type][]dnsmsg.RR),
		hasNode: make(map[dnsmsg.Name]bool),
	}
	z.serial.Store(soa.Serial)
	z.soa = dnsmsg.RR{Name: origin, Class: dnsmsg.ClassIN, TTL: soaTTL, Data: soa}
	z.markNodesLocked(origin)
	return z
}

// Origin returns the zone's apex name.
func (z *Zone) Origin() dnsmsg.Name { return z.origin }

// Serial returns the zone's current SOA serial. It takes no lock.
func (z *Zone) Serial() uint32 {
	return z.serial.Load()
}

// SOA returns the zone's SOA record with the current serial.
func (z *Zone) SOA() dnsmsg.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.soaLocked()
}

func (z *Zone) soaLocked() dnsmsg.RR {
	soa := z.soa
	data := soa.Data.(dnsmsg.SOAData)
	data.Serial = z.serial.Load()
	soa.Data = data
	return soa
}

// contains reports whether name belongs to this zone's namespace.
func (z *Zone) contains(name dnsmsg.Name) bool {
	return name.IsSubdomainOf(z.origin)
}

// Add appends rr to the matching RRset and bumps the serial. It returns an
// error if the record's name is outside the zone.
func (z *Zone) Add(rr dnsmsg.RR) error {
	if !z.contains(rr.Name) {
		return fmt.Errorf("adding %s: outside zone %s", rr.Name, z.origin)
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	sets, ok := z.rrsets[rr.Name]
	if !ok {
		sets = make(map[dnsmsg.Type][]dnsmsg.RR)
		z.rrsets[rr.Name] = sets
	}
	sets[rr.Type()] = append(sets[rr.Type()], rr)
	z.markNodesLocked(rr.Name)
	z.serial.Add(1)
	return nil
}

// MustAdd is Add but panics on error; for composition-root configuration.
func (z *Zone) MustAdd(rr dnsmsg.RR) {
	if err := z.Add(rr); err != nil {
		panic(fmt.Sprintf("dnszone: %v", err))
	}
}

// Set replaces the RRset of (name, type) with the given records (all of
// which must have that name and type) and bumps the serial.
func (z *Zone) Set(name dnsmsg.Name, t dnsmsg.Type, rrs ...dnsmsg.RR) error {
	if !z.contains(name) {
		return fmt.Errorf("setting %s: outside zone %s", name, z.origin)
	}
	for _, rr := range rrs {
		if rr.Name != name || rr.Type() != t {
			return fmt.Errorf("setting %s/%s: record %s does not match", name, t, rr)
		}
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	if len(rrs) == 0 {
		z.removeLocked(name, t)
	} else {
		sets, ok := z.rrsets[name]
		if !ok {
			sets = make(map[dnsmsg.Type][]dnsmsg.RR)
			z.rrsets[name] = sets
		}
		sets[t] = append([]dnsmsg.RR(nil), rrs...)
		z.markNodesLocked(name)
	}
	z.serial.Add(1)
	return nil
}

// Remove deletes the RRset of (name, type) and bumps the serial.
func (z *Zone) Remove(name dnsmsg.Name, t dnsmsg.Type) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.removeLocked(name, t)
	z.serial.Add(1)
}

// RemoveName deletes every RRset at name and bumps the serial.
func (z *Zone) RemoveName(name dnsmsg.Name) {
	z.mu.Lock()
	defer z.mu.Unlock()
	delete(z.rrsets, name)
	z.rebuildNodesLocked()
	z.serial.Add(1)
}

func (z *Zone) removeLocked(name dnsmsg.Name, t dnsmsg.Type) {
	sets, ok := z.rrsets[name]
	if !ok {
		return
	}
	delete(sets, t)
	if len(sets) == 0 {
		delete(z.rrsets, name)
	}
	z.rebuildNodesLocked()
}

// markNodesLocked records name and every ancestor up to the origin as
// existing nodes (empty non-terminals), so NXDOMAIN vs NODATA is decided
// correctly.
func (z *Zone) markNodesLocked(name dnsmsg.Name) {
	for {
		z.hasNode[name] = true
		if name == z.origin || name.IsRoot() {
			return
		}
		name = name.Parent()
	}
}

func (z *Zone) rebuildNodesLocked() {
	z.hasNode = make(map[dnsmsg.Name]bool)
	z.markNodesLocked(z.origin)
	for name := range z.rrsets {
		z.markNodesLocked(name)
	}
}

// Get returns a copy of the RRset at (name, type).
func (z *Zone) Get(name dnsmsg.Name, t dnsmsg.Type) []dnsmsg.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	sets := z.rrsets[name]
	if sets == nil {
		return nil
	}
	return append([]dnsmsg.RR(nil), sets[t]...)
}

// Names returns every owner name in the zone, sorted, for inspection.
func (z *Zone) Names() []dnsmsg.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]dnsmsg.Name, 0, len(z.rrsets))
	for n := range z.rrsets {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maxCNAMEChase bounds in-zone CNAME chain chasing. Chains this long do
// not occur in the simulated world; the bound replaces the per-lookup seen
// map so the hot path stays allocation-free while still terminating on
// alias cycles.
const maxCNAMEChase = 16

// Lookup runs the authoritative lookup algorithm for (qname, qtype).
// The caller must ensure qname is within the zone; Lookup panics otherwise
// because routing a foreign name here is a server bug, not a client error.
func (z *Zone) Lookup(qname dnsmsg.Name, qtype dnsmsg.Type) Result {
	var res Result
	z.LookupInto(qname, qtype, &res)
	return res
}

// LookupInto is Lookup writing into a caller-owned Result: res.Records and
// res.Glue are truncated and re-filled, so a reused Result stops
// allocating once its slices have grown to the zone's answer sizes. The
// record values are copies; they remain valid across later zone mutation.
func (z *Zone) LookupInto(qname dnsmsg.Name, qtype dnsmsg.Type, res *Result) {
	if !z.contains(qname) {
		panic(fmt.Sprintf("dnszone: lookup of %s outside zone %s", qname, z.origin))
	}
	res.Records = res.Records[:0]
	res.Glue = res.Glue[:0]
	res.SOA = dnsmsg.RR{}

	z.mu.RLock()
	defer z.mu.RUnlock()

	// Delegation check: walk from the closest ancestor below the apex
	// toward qname; an NS RRset not at the apex is a zone cut.
	if cut, ok := z.findCutLocked(qname); ok {
		ns := z.rrsets[cut][dnsmsg.TypeNS]
		res.Kind = KindReferral
		res.Records = append(res.Records, ns...)
		for _, rr := range ns {
			host := rr.Data.(dnsmsg.NSData).Host
			if z.contains(host) {
				res.Glue = append(res.Glue, z.rrsets[host][dnsmsg.TypeA]...)
			}
		}
		return
	}

	sets := z.rrsets[qname]

	// CNAME handling: an alias answers every type except its own.
	if cname, ok := sets[dnsmsg.TypeCNAME]; ok && qtype != dnsmsg.TypeCNAME {
		res.Kind = KindCNAME
		res.Records = append(res.Records, cname...)
		// Chase the chain while targets stay inside this zone. The seen
		// list lives on the stack; its capacity bounds the chase depth.
		var seenArr [maxCNAMEChase]dnsmsg.Name
		seen := append(seenArr[:0], qname)
		cur := cname[0].Data.(dnsmsg.CNAMEData).Target
		for z.contains(cur) && !nameIn(seen, cur) && len(seen) < maxCNAMEChase {
			seen = append(seen, cur)
			curSets := z.rrsets[cur]
			if next, ok := curSets[dnsmsg.TypeCNAME]; ok {
				res.Records = append(res.Records, next...)
				cur = next[0].Data.(dnsmsg.CNAMEData).Target
				continue
			}
			res.Records = append(res.Records, curSets[qtype]...)
			break
		}
		return
	}

	if rrs, ok := sets[qtype]; ok && len(rrs) > 0 {
		res.Kind = KindAnswer
		res.Records = append(res.Records, rrs...)
		return
	}
	if z.hasNode[qname] {
		res.Kind = KindNoData
		res.SOA = z.soaLocked()
		return
	}
	res.Kind = KindNXDomain
	res.SOA = z.soaLocked()
}

// nameIn reports whether n is in names (linear scan over a short stack
// slice, cheaper than a map for chase-depth-bounded lists).
func nameIn(names []dnsmsg.Name, n dnsmsg.Name) bool {
	for _, x := range names {
		if x == n {
			return true
		}
	}
	return false
}

// findCutLocked looks for a delegation NS RRset strictly between the apex
// (exclusive) and qname (inclusive only when qtype would be below it; per
// RFC 1034 a query exactly at the cut for NS is still a referral from the
// parent side, which is the behaviour we want for TLD servers).
func (z *Zone) findCutLocked(qname dnsmsg.Name) (dnsmsg.Name, bool) {
	// Chain of names from apex child down to qname; the array backs a
	// stack-allocated slice for any realistic label depth.
	var chainArr [24]dnsmsg.Name
	chain := chainArr[:0]
	for n := qname; n != z.origin && !n.IsRoot(); n = n.Parent() {
		chain = append(chain, n)
	}
	// Walk top-down (apex child first).
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		if sets, ok := z.rrsets[n]; ok {
			if _, hasNS := sets[dnsmsg.TypeNS]; hasNS {
				return n, true
			}
		}
	}
	return "", false
}
