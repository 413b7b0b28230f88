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
	"encoding/binary"
	"fmt"
	"hash/maphash"
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
	// Deps is what the result depends on, for Zone.Unchanged.
	Deps Deps
}

// maxDeps bounds the owner names a Deps holds; an answer that read more
// depends on the whole zone.
const maxDeps = 4

// Deps records which owner names a lookup's result depends on, by hash,
// so a server can keep a stored answer across edits to other names (see
// Zone.Unchanged). It holds no pointer. The zero value, like any result
// that read more than maxDeps names, depends on the whole zone.
type Deps struct {
	hash  [maxDeps]uint32
	n     uint8
	exact bool // hash[:n] are all the result depends on
}

// add records that the result read name's records.
func (d *Deps) add(name dnsmsg.Name) {
	if !d.exact {
		return
	}
	h := nameHash(name)
	for _, x := range d.hash[:d.n] {
		if x == h {
			return
		}
	}
	if int(d.n) == maxDeps {
		*d = Deps{}
		return
	}
	d.hash[d.n] = h
	d.n++
}

// AppendTo appends d's encoding, the form Zone.Unchanged takes, to dst:
// four bytes per owner-name hash, none for a result that depends on the
// whole zone. A server keeps it with its stored answer.
func (d Deps) AppendTo(dst []byte) []byte {
	if !d.exact {
		return dst
	}
	for _, h := range d.hash[:d.n] {
		dst = binary.LittleEndian.AppendUint32(dst, h)
	}
	return dst
}

// depSeed keys owner-name hashes; nothing outside the process sees them.
var depSeed = maphash.MakeSeed()

// nameHash is the key of name's change stamp. Two names with one hash
// share a stamp, which can only make a stored answer look stale.
func nameHash(name dnsmsg.Name) uint32 {
	h := maphash.String(depSeed, string(name))
	return uint32(h ^ h>>32)
}

// Zone holds the records of one DNS zone. It is safe for concurrent use.
//
// Every mutator bumps the serial after changing the records, under the
// write lock: an unchanged serial means unchanged contents, and servers
// reuse encoded answers on that premise. Once a server has asked for the
// serial through WatchSerial, each mutator also stamps the owner name it
// changed with the new serial, so an answer that read only other names
// stays valid (Unchanged). A new mutator must do both, through
// changedLocked.
type Zone struct {
	origin dnsmsg.Name

	// serial is read without the lock (Serial is an atomic load) and
	// written only under mu.
	serial atomic.Uint32
	// watched turns on the change stamps; it is set before the serial
	// an answer is checked against is read.
	watched atomic.Bool

	mu     sync.RWMutex
	rrsets map[dnsmsg.Name]map[dnsmsg.Type][]dnsmsg.RR
	soa    dnsmsg.RR
	// below counts, for each name, the owner names at or below it that
	// have records. A name is a node (it exists, if only as an empty
	// non-terminal) when it is the origin or its count is positive.
	below map[dnsmsg.Name]int32
	// stamps maps an owner-name hash to the serial of the name's last
	// change since watched was set, deleted names included. Answers
	// older than floor are stale: forgetting stamps raises it.
	stamps map[uint32]uint32
	floor  uint32
}

// New creates a zone rooted at origin with the given SOA parameters.
func New(origin dnsmsg.Name, soa dnsmsg.SOAData) *Zone {
	z := &Zone{
		origin: origin,
		rrsets: make(map[dnsmsg.Name]map[dnsmsg.Type][]dnsmsg.RR),
		below:  make(map[dnsmsg.Name]int32),
	}
	z.serial.Store(soa.Serial)
	z.soa = dnsmsg.RR{Name: origin, Class: dnsmsg.ClassIN, TTL: soaTTL, Data: soa}
	return z
}

// Origin returns the zone's apex name.
func (z *Zone) Origin() dnsmsg.Name { return z.origin }

// Serial returns the zone's current SOA serial. It takes no lock.
func (z *Zone) Serial() uint32 {
	return z.serial.Load()
}

// WatchSerial is Serial for a caller that will check an answer computed
// from now on with Unchanged: it turns on the per-owner change stamps
// first, so every edit after the serial it returns is stamped.
func (z *Zone) WatchSerial() uint32 {
	if !z.watched.Load() {
		z.watched.Store(true)
	}
	return z.serial.Load()
}

// Unchanged reports whether a result looked up after WatchSerial
// returned serial, with dependencies deps (its Deps as AppendTo encodes
// them), is still the zone's answer: the serial has not moved, or none
// of the owners the result depends on has changed since. A deleted name
// counts as changed. It also returns the current serial, read in the
// same critical section, at which the result is known to hold.
//
// Negative results (NODATA, NXDOMAIN) carry the SOA, and with it the
// serial, so they depend on the whole zone: their deps are empty.
func (z *Zone) Unchanged(serial uint32, deps []byte) (uint32, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	cur := z.serial.Load()
	if cur == serial {
		return cur, true
	}
	if len(deps) == 0 || !z.watched.Load() || serial < z.floor {
		return cur, false
	}
	for ; len(deps) >= 4; deps = deps[4:] {
		if z.stamps[binary.LittleEndian.Uint32(deps)] > serial {
			return cur, false
		}
	}
	return cur, true
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
	sets := z.ownerLocked(rr.Name)
	sets[rr.Type()] = append(sets[rr.Type()], rr)
	z.changedLocked(rr.Name)
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
		z.ownerLocked(name)[t] = append([]dnsmsg.RR(nil), rrs...)
	}
	z.changedLocked(name)
	return nil
}

// Remove deletes the RRset of (name, type) and bumps the serial.
func (z *Zone) Remove(name dnsmsg.Name, t dnsmsg.Type) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.removeLocked(name, t)
	z.changedLocked(name)
}

// RemoveName deletes every RRset at name and bumps the serial.
func (z *Zone) RemoveName(name dnsmsg.Name) {
	z.mu.Lock()
	defer z.mu.Unlock()
	if _, ok := z.rrsets[name]; ok {
		delete(z.rrsets, name)
		z.countLocked(name, -1)
	}
	z.changedLocked(name)
}

func (z *Zone) removeLocked(name dnsmsg.Name, t dnsmsg.Type) {
	sets, ok := z.rrsets[name]
	if !ok {
		return
	}
	delete(sets, t)
	if len(sets) == 0 {
		delete(z.rrsets, name)
		z.countLocked(name, -1)
	}
}

// ownerLocked returns name's RRsets, creating them (and counting the new
// owner) if name has none.
func (z *Zone) ownerLocked(name dnsmsg.Name) map[dnsmsg.Type][]dnsmsg.RR {
	sets, ok := z.rrsets[name]
	if !ok {
		sets = make(map[dnsmsg.Type][]dnsmsg.RR)
		z.rrsets[name] = sets
		z.countLocked(name, 1)
	}
	return sets
}

// countLocked adds delta to the owner count of name and of every ancestor
// up to the origin, so NXDOMAIN vs NODATA (empty non-terminals) is decided
// correctly without a walk over the zone.
func (z *Zone) countLocked(name dnsmsg.Name, delta int32) {
	for {
		if c := z.below[name] + delta; c > 0 {
			z.below[name] = c
		} else {
			delete(z.below, name)
		}
		if name == z.origin || name.IsRoot() {
			return
		}
		name = name.Parent()
	}
}

// changedLocked bumps the serial after a change to name's records and,
// once the zone is watched, stamps name with the new serial. When the
// stamps outnumber twice the zone's owners, most belong to deleted names:
// they are forgotten, and answers older than this change go stale.
func (z *Zone) changedLocked(name dnsmsg.Name) {
	serial := z.serial.Add(1)
	if !z.watched.Load() {
		return
	}
	if len(z.stamps) >= 2*len(z.rrsets)+minStamps {
		clear(z.stamps)
		z.floor = serial
	}
	if z.stamps == nil {
		z.stamps = make(map[uint32]uint32)
	}
	z.stamps[nameHash(name)] = serial
}

// minStamps is how many stamps a zone keeps regardless of its size.
const minStamps = 1024

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

// LookupInto is Lookup writing into a caller-owned Result: res.Records and
// res.Glue are truncated and re-filled, so a reused Result stops
// allocating once its slices have grown to the zone's answer sizes. The
// record values are copies; they remain valid across later zone mutation.
//
// res.Deps names every owner whose records the lookup read, which is all
// a positive result depends on:
//   - the names the cut search visits: qname and its ancestors below the
//     origin, top-down to the cut if there is one;
//   - for a referral, the cut's in-zone NS hosts (the glue);
//   - for an in-zone CNAME chain, qname and every chased target.
//
// NODATA and NXDOMAIN carry the SOA serial and depend on the whole zone.
func (z *Zone) LookupInto(qname dnsmsg.Name, qtype dnsmsg.Type, res *Result) {
	if !z.contains(qname) {
		panic(fmt.Sprintf("dnszone: lookup of %s outside zone %s", qname, z.origin))
	}
	res.Records = res.Records[:0]
	res.Glue = res.Glue[:0]
	res.SOA = dnsmsg.RR{}
	deps := &res.Deps
	*deps = Deps{exact: true}

	z.mu.RLock()
	defer z.mu.RUnlock()

	// Delegation check: walk from the closest ancestor below the apex
	// toward qname; an NS RRset not at the apex is a zone cut.
	if cut, ok := z.findCutLocked(qname, deps); ok {
		ns := z.rrsets[cut][dnsmsg.TypeNS]
		res.Kind = KindReferral
		res.Records = append(res.Records, ns...)
		for _, rr := range ns {
			host := rr.Data.(dnsmsg.NSData).Host
			if z.contains(host) {
				deps.add(host)
				res.Glue = append(res.Glue, z.rrsets[host][dnsmsg.TypeA]...)
			}
		}
		return
	}

	deps.add(qname)
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
			deps.add(cur)
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
	*deps = Deps{}
	if qname == z.origin || z.below[qname] > 0 {
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
// parent side, which is the behaviour we want for TLD servers). It adds
// each name it visits to deps.
func (z *Zone) findCutLocked(qname dnsmsg.Name, deps *Deps) (dnsmsg.Name, bool) {
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
		deps.add(n)
		if sets, ok := z.rrsets[n]; ok {
			if _, hasNS := sets[dnsmsg.TypeNS]; hasNS {
				return n, true
			}
		}
	}
	return "", false
}
