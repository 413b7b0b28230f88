package snapstore

import (
	"fmt"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/dnsmsg"
)

// View is a read surface over a store's sealed days: every replay entry
// point — Cursor, DiffPairs, RecordAt, Rank, History — operates on a
// View, and the Store's own Cursor and DiffPairs delegate to a borrowed
// one.
//
// A view shares its store's index structures and is read-only: any
// number of goroutines can read it while the store is quiescent. The
// lookup service reads views of stores loaded from disk, which nothing
// appends to; a new sealed round reaches it as a new store.
type View struct {
	metas      []apexMeta
	byApex     map[dnsmsg.Name]int32
	chains     [][]version
	days       []int
	evicted    int
	rankOrder  []int32
	versions   int
	tombstones int
	interned   int
}

// Days returns the view's replayable day labels in append order.
func (v *View) Days() []int { return append([]int(nil), v.days...) }

// LatestDay returns the most recently sealed day, or ok=false on an
// empty view.
func (v *View) LatestDay() (int, bool) {
	if len(v.days) == 0 {
		return 0, false
	}
	return v.days[len(v.days)-1], true
}

// checkDay panics when day was never sealed or fell out of the retention
// window — replaying it would silently produce a wrong (partial) world.
func (v *View) checkDay(day int) int32 {
	for _, d := range v.days {
		if d == day {
			return int32(day)
		}
	}
	panic(fmt.Sprintf("snapstore: day %d is not replayable (have %v, %d evicted)", day, v.days, v.evicted))
}

// materialize converts a stored version back to the collect.Record the
// collector emitted. The record's slices are the version's cached backing
// data, shared across every materialization of the same version: replay
// is allocation-free, and callers must treat the record as read-only.
func (v *View) materialize(idx int32, r crec) collect.Record {
	m := v.metas[idx]
	return collect.Record{
		Domain:    alexa.Domain{Rank: int(m.rank), Apex: m.name},
		Addrs:     r.addrs,
		CNAMEs:    r.cnameNames,
		NSHosts:   r.nsHostNames,
		ResolveOK: r.resolveOK,
		NSOK:      r.nsOK,
	}
}

// RecordAt returns apex's record at day (ok=false when the apex is not
// live that day). It panics if day is not replayable.
func (v *View) RecordAt(apex dnsmsg.Name, day int) (collect.Record, bool) {
	d := v.checkDay(day)
	idx, ok := v.byApex[apex]
	if !ok {
		return collect.Record{}, false
	}
	r, live := liveAt(v.chains[idx], d)
	if !live {
		return collect.Record{}, false
	}
	return v.materialize(idx, r), true
}

// Rank returns apex's rank from the view's metadata, independent of any
// particular day.
func (v *View) Rank(apex dnsmsg.Name) (int, bool) {
	idx, ok := v.byApex[apex]
	if !ok {
		return 0, false
	}
	return int(v.metas[idx].rank), true
}

// Index returns apex's dense index in [0, Stats().Apexes), fixed for
// the view's lifetime; ok is false when the view has never seen apex.
func (v *View) Index(apex dnsmsg.Name) (int, bool) {
	idx, ok := v.byApex[apex]
	return int(idx), ok
}

// Apexes returns every apex the view has ever seen, in rank order.
func (v *View) Apexes() []dnsmsg.Name {
	out := make([]dnsmsg.Name, len(v.rankOrder))
	for i, idx := range v.rankOrder {
		out[i] = v.metas[idx].name
	}
	return out
}

// Top returns the first n apexes of Apexes with their ranks, all of them
// when n exceeds the count, without copying the rest.
func (v *View) Top(n int) []alexa.Domain {
	out := make([]alexa.Domain, max(0, min(n, len(v.rankOrder))))
	for i := range out {
		m := v.metas[v.rankOrder[i]]
		out[i] = alexa.Domain{Rank: int(m.rank), Apex: m.name}
	}
	return out
}

// Stats returns the view's retained shape.
func (v *View) Stats() Stats {
	return Stats{
		Days:          len(v.days),
		EvictedDays:   v.evicted,
		Apexes:        len(v.metas),
		Versions:      v.versions,
		Tombstones:    v.tombstones,
		InternedNames: v.interned,
	}
}

// VersionInfo is one link of an apex's version chain, materialized: the
// record value in force from Day onward (Gone marks a tombstone — the
// apex absent from Day onward). The oldest link is the version in force
// at the start of the retention window; older history has been evicted.
type VersionInfo struct {
	Day  int
	Gone bool
	Rec  collect.Record
}

// History returns apex's retained version chain, oldest first — the
// day-stamped record changes the delta encoding stored. An unknown apex
// returns nil.
func (v *View) History(apex dnsmsg.Name) []VersionInfo {
	idx, ok := v.byApex[apex]
	if !ok {
		return nil
	}
	chain := v.chains[idx]
	out := make([]VersionInfo, len(chain))
	for i, ver := range chain {
		out[i] = VersionInfo{Day: int(ver.day), Gone: ver.gone}
		if !ver.gone {
			out[i].Rec = v.materialize(idx, ver.rec)
		}
	}
	return out
}
