// Package snapstore is an append-only, delta-encoded store for daily
// collection snapshots (§IV-B.1's day-over-day record series).
//
// Holding every day as a full map of records costs a copy of every
// domain's records per day, so a campaign that keeps history would pay
// domains × days regardless of how little actually changed. The paper's
// own observation (§IV-C) is that almost nothing changes day over day —
// a few hundred behaviours per million domains — which makes the series
// delta-friendly: this store keeps one version chain per apex, appends a
// new version only when the record's value changed, records a tombstone
// when an apex disappears, and interns every dnsmsg.Name so repeated
// CNAME targets and NS hostnames are stored once.
//
// Days are replayed, not materialized: Cursor(day) iterates the day's
// virtual full snapshot in rank order, DiffPairs(day) streams (prev, cur)
// record pairs against the previous sealed day, and a View (SealedView)
// is the one place for point reads (RecordAt, Rank, History). SetWindow
// bounds retention for steady-state campaigns that only ever look one
// day back.
package snapstore

import (
	"fmt"
	"net/netip"
	"sort"

	"rrdps/internal/core/collect"
	"rrdps/internal/dnsmsg"
)

// crec is the compact stored form of a collect.Record: names are interned
// handles, the rank lives in per-apex metadata, and the apex itself is
// implied by the chain the version sits in.
//
// cnameNames/nsHostNames cache the handles resolved back to names, built
// once when the version is stored. Replay paths (Cursor, DiffPairs,
// RecordAt) hand these slices out directly, so a day-over-day diff walks
// the store without allocating a name slice per record; the price is one
// extra slice header pair per stored version, and versions only exist
// where records actually changed. equal() ignores the caches — the
// handles are the value.
type crec struct {
	addrs       []netip.Addr
	cnames      []NameID
	nsHosts     []NameID
	cnameNames  []dnsmsg.Name
	nsHostNames []dnsmsg.Name
	resolveOK   bool
	nsOK        bool
}

// equal reports value equality, the delta-encoding predicate: equal
// records share one stored version across days.
func (r crec) equal(o crec) bool {
	if r.resolveOK != o.resolveOK || r.nsOK != o.nsOK {
		return false
	}
	if len(r.addrs) != len(o.addrs) || len(r.cnames) != len(o.cnames) || len(r.nsHosts) != len(o.nsHosts) {
		return false
	}
	for i := range r.addrs {
		if r.addrs[i] != o.addrs[i] {
			return false
		}
	}
	for i := range r.cnames {
		if r.cnames[i] != o.cnames[i] {
			return false
		}
	}
	for i := range r.nsHosts {
		if r.nsHosts[i] != o.nsHosts[i] {
			return false
		}
	}
	return true
}

// version is one link of an apex's chain: the record value in force from
// day onward, until a later version supersedes it. A tombstone marks the
// apex absent from day onward.
type version struct {
	day  int32
	gone bool
	rec  crec
}

// apexMeta is the per-apex invariant data.
type apexMeta struct {
	name dnsmsg.Name
	rank int32
}

// Store is the append-only snapshot store. Days are appended in strictly
// increasing order via BeginDay/Put/Seal; between Seal and the next
// BeginDay the store is immutable and its replay entry points (Cursor,
// DiffPairs) are safe for concurrent use. Point reads go through a View
// from SealedView, under the same contract.
type Store struct {
	interner *Interner
	metas    []apexMeta
	byApex   map[dnsmsg.Name]int32
	chains   [][]version
	// days holds the sealed, still-replayable day labels in append order;
	// evicted counts how many older days the retention window dropped.
	days    []int
	evicted int
	window  int
	// rankOrder is the apex indices sorted by (rank, apex), rebuilt at
	// Seal when the population changed.
	rankOrder []int32
	popDirty  bool
	// versions/tombstones are lifetime counters for Stats (compaction
	// does not decrement them; they describe what was appended).
	versions   int
	tombstones int
}

// New creates an empty store with unbounded retention.
func New() *Store {
	return &Store{
		interner: NewInterner(),
		byApex:   make(map[dnsmsg.Name]int32),
	}
}

// SetWindow bounds retention to the last n sealed days (0 restores
// unbounded retention). When a Seal pushes the window past an old day,
// that day stops being replayable and its superseded versions are freed;
// each apex keeps the one version in force at the window's start as its
// base. Call between days, not mid-append.
func (s *Store) SetWindow(n int) {
	if n < 0 {
		panic(fmt.Sprintf("snapstore: SetWindow(%d)", n))
	}
	s.window = n
}

// Days returns the replayable day labels in append order.
func (s *Store) Days() []int { return append([]int(nil), s.days...) }

// LatestDay returns the most recently sealed day, or ok=false on an
// empty store.
func (s *Store) LatestDay() (int, bool) {
	if len(s.days) == 0 {
		return 0, false
	}
	return s.days[len(s.days)-1], true
}

// DayWriter appends one day's records; obtain one from BeginDay, Put
// every record, then Seal.
type DayWriter struct {
	s       *Store
	day     int32
	touched []bool // indexed by apexIdx as of BeginDay; later apexes are new today
	nBefore int
	sealed  bool
}

// BeginDay starts appending records for day, which must exceed every
// sealed day (snapshots arrive in time order).
func (s *Store) BeginDay(day int) *DayWriter {
	if last, ok := s.LatestDay(); ok && day <= last {
		panic(fmt.Sprintf("snapstore: BeginDay(%d) after day %d", day, last))
	}
	return &DayWriter{
		s:       s,
		day:     int32(day),
		touched: make([]bool, len(s.chains)),
		nBefore: len(s.chains),
	}
}

// Put appends one record to the day. Unchanged records (vs. the apex's
// live version) are deduplicated away — that is the delta encoding.
// Putting the same apex twice in one day panics.
func (w *DayWriter) Put(rec collect.Record) {
	if w.sealed {
		panic("snapstore: Put after Seal")
	}
	s := w.s
	apex := rec.Domain.Apex
	idx, ok := s.byApex[apex]
	if !ok {
		idx = int32(len(s.metas))
		s.byApex[apex] = idx
		s.metas = append(s.metas, apexMeta{name: apex, rank: int32(rec.Domain.Rank)})
		s.chains = append(s.chains, nil)
		s.popDirty = true
	}
	if int(idx) < w.nBefore {
		if w.touched[idx] {
			panic(fmt.Sprintf("snapstore: duplicate Put(%s) on day %d", apex, w.day))
		}
		w.touched[idx] = true
	}

	cr := crec{
		addrs:     rec.Addrs,
		cnames:    s.interner.internAll(rec.CNAMEs),
		nsHosts:   s.interner.internAll(rec.NSHosts),
		resolveOK: rec.ResolveOK,
		nsOK:      rec.NSOK,
	}
	chain := s.chains[idx]
	if n := len(chain); n > 0 && !chain[n-1].gone && chain[n-1].rec.equal(cr) {
		return // unchanged since its last version: no new delta
	}
	// Only a version that is actually stored pays for its replay caches.
	cr.cnameNames = s.interner.resolveAll(cr.cnames)
	cr.nsHostNames = s.interner.resolveAll(cr.nsHosts)
	s.chains[idx] = append(chain, version{day: w.day, rec: cr})
	s.versions++
}

// Seal finalizes the day: apexes that were live yesterday but not Put
// today get tombstones, the rank index absorbs any population change,
// and the retention window evicts days that fell out of it.
func (w *DayWriter) Seal() {
	if w.sealed {
		panic("snapstore: double Seal")
	}
	w.sealed = true
	s := w.s
	if len(s.days) > 0 {
		prev := int32(s.days[len(s.days)-1])
		for idx := 0; idx < w.nBefore; idx++ {
			if w.touched[idx] {
				continue
			}
			if _, live := liveAt(s.chains[idx], prev); live {
				s.chains[idx] = append(s.chains[idx], version{day: w.day, gone: true})
				s.tombstones++
			}
		}
	}
	s.days = append(s.days, int(w.day))
	if s.popDirty {
		s.rebuildRankOrder()
	}
	if s.window > 0 && len(s.days) > s.window {
		s.evict(len(s.days) - s.window)
	}
}

// rebuildRankOrder sorts the apex indices by (rank, apex).
func (s *Store) rebuildRankOrder() {
	s.rankOrder = make([]int32, len(s.metas))
	for i := range s.rankOrder {
		s.rankOrder[i] = int32(i)
	}
	sort.Slice(s.rankOrder, func(i, j int) bool {
		a, b := s.metas[s.rankOrder[i]], s.metas[s.rankOrder[j]]
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.name < b.name
	})
	s.popDirty = false
}

// evict drops the oldest n replayable days. Every chain keeps the version
// in force at the new oldest day as its base; fully superseded prefixes
// are copied out of their backing arrays so the old records are actually
// freed.
func (s *Store) evict(n int) {
	newMin := int32(s.days[n])
	for i, chain := range s.chains {
		cut := 0
		for cut+1 < len(chain) && chain[cut+1].day <= newMin {
			cut++
		}
		if cut == 0 {
			continue
		}
		s.chains[i] = append(make([]version, 0, len(chain)-cut), chain[cut:]...)
	}
	s.days = append([]int(nil), s.days[n:]...)
	s.evicted += n
}

// liveAt returns the chain's record in force at day, and whether the apex
// is live (seen and not tombstoned) then.
func liveAt(chain []version, day int32) (crec, bool) {
	// Chains are short (one version per change); scan from the newest end.
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].day <= day {
			if chain[i].gone {
				return crec{}, false
			}
			return chain[i].rec, true
		}
	}
	return crec{}, false
}

// SealedView returns a read surface over the store's sealed days,
// shared by any number of concurrent readers; the store's own Cursor and
// DiffPairs delegate to it. It shares the store's index structures, so
// it is valid only while the store is quiescent: a store loaded from
// disk (the lookup service's epochs), or a live one between Seal and
// the next BeginDay.
func (s *Store) SealedView() *View {
	return &View{
		metas:      s.metas,
		byApex:     s.byApex,
		chains:     s.chains,
		days:       s.days,
		evicted:    s.evicted,
		rankOrder:  s.rankOrder,
		versions:   s.versions,
		tombstones: s.tombstones,
		interned:   s.interner.Len(),
	}
}

// Stats describes the store's retained shape.
type Stats struct {
	// Days is the replayable window; EvictedDays counts what the window
	// dropped.
	Days, EvictedDays int
	// Apexes is the population ever seen.
	Apexes int
	// Versions / Tombstones count appended chain links over the store's
	// lifetime: the delta volume, independent of eviction.
	Versions, Tombstones int
	// InternedNames is the size of the shared name table.
	InternedNames int
}

// Stats returns the store's retained shape.
func (s *Store) Stats() Stats {
	return Stats{
		Days:          len(s.days),
		EvictedDays:   s.evicted,
		Apexes:        len(s.metas),
		Versions:      s.versions,
		Tombstones:    s.tombstones,
		InternedNames: s.interner.Len(),
	}
}
