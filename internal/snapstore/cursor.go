package snapstore

import (
	"net/netip"

	"rrdps/internal/core/collect"
	"rrdps/internal/dnsmsg"
)

// Cursor replays one day as a virtual full snapshot, yielding records in
// rank order without building the per-day map. The usual shape:
//
//	cur := store.Cursor(day)
//	for cur.Next() {
//		apex, rec := cur.Apex(), cur.Record()
//		...
//	}
//
// Records materialize one at a time without allocating: their slices are
// the store's interned backing data, shared across materializations, so
// callers must treat them as read-only.
type Cursor struct {
	v    *View
	day  int32
	pos  int
	idx  int32
	rec  crec
	full collect.Record
	ok   bool // full is materialized for the current position
}

// Cursor returns a cursor over day's records in rank order. It panics if
// day is not replayable (never sealed, or evicted by the window).
func (s *Store) Cursor(day int) *Cursor { return s.SealedView().Cursor(day) }

// Cursor returns a cursor over day's records in rank order; see
// Store.Cursor.
func (v *View) Cursor(day int) *Cursor {
	return &Cursor{v: v, day: v.checkDay(day)}
}

// Next advances to the next live record; it returns false when the day is
// exhausted.
func (c *Cursor) Next() bool {
	for c.pos < len(c.v.rankOrder) {
		idx := c.v.rankOrder[c.pos]
		c.pos++
		if r, live := liveAt(c.v.chains[idx], c.day); live {
			c.idx, c.rec, c.ok = idx, r, false
			return true
		}
	}
	return false
}

// Apex returns the current record's apex.
func (c *Cursor) Apex() dnsmsg.Name { return c.v.metas[c.idx].name }

// Record materializes the current record.
func (c *Cursor) Record() collect.Record {
	if !c.ok {
		c.full, c.ok = c.v.materialize(c.idx, c.rec), true
	}
	return c.full
}

// Pair is one apex's (previous day, current day) record pair. Either side
// may be absent: PrevOK=false marks an apex newly live today, CurOK=false
// one that was tombstoned today.
type Pair struct {
	Apex      dnsmsg.Name
	Prev, Cur collect.Record
	PrevOK    bool
	CurOK     bool
}

// Unchanged reports whether both sides are live with identical values —
// the pairs a day-over-day differ can skip.
func (p Pair) Unchanged() bool {
	return p.PrevOK && p.CurOK &&
		p.Prev.ResolveOK == p.Cur.ResolveOK && p.Prev.NSOK == p.Cur.NSOK &&
		equalAddrs(p.Prev.Addrs, p.Cur.Addrs) &&
		equalNames(p.Prev.CNAMEs, p.Cur.CNAMEs) &&
		equalNames(p.Prev.NSHosts, p.Cur.NSHosts)
}

// PairCursor streams DiffPairs; see Store.DiffPairs.
type PairCursor struct {
	v        *View
	prevDay  int32
	day      int32
	havePrev bool
	pos      int
	pair     Pair
}

// DiffPairs returns a cursor yielding, in rank order, every apex live on
// day or on the previous sealed day, paired as (prev, cur) — the §IV-B.3
// day-over-day diff as a stream, with neither side materialized as a map.
// On the store's first day every pair has PrevOK=false. It panics if day
// (or its predecessor, when one exists in the window) is not replayable.
func (s *Store) DiffPairs(day int) *PairCursor { return s.SealedView().DiffPairs(day) }

// DiffPairs returns a (prev, cur) pair cursor over day; see
// Store.DiffPairs.
func (v *View) DiffPairs(day int) *PairCursor {
	d := v.checkDay(day)
	pc := &PairCursor{v: v, day: d}
	for i, sealed := range v.days {
		if sealed == day && i > 0 {
			pc.prevDay = int32(v.days[i-1])
			pc.havePrev = true
		}
	}
	return pc
}

// Next advances to the next pair; it returns false when exhausted.
func (pc *PairCursor) Next() bool {
	for pc.pos < len(pc.v.rankOrder) {
		idx := pc.v.rankOrder[pc.pos]
		pc.pos++
		chain := pc.v.chains[idx]
		cur, curLive := liveAt(chain, pc.day)
		var prev crec
		prevLive := false
		if pc.havePrev {
			prev, prevLive = liveAt(chain, pc.prevDay)
		}
		if !curLive && !prevLive {
			continue
		}
		pc.pair = Pair{Apex: pc.v.metas[idx].name, PrevOK: prevLive, CurOK: curLive}
		if prevLive {
			pc.pair.Prev = pc.v.materialize(idx, prev)
		}
		if curLive {
			pc.pair.Cur = pc.v.materialize(idx, cur)
		}
		return true
	}
	return false
}

// Pair returns the current pair.
func (pc *PairCursor) Pair() Pair { return pc.pair }

func equalAddrs(a, b []netip.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalNames(a, b []dnsmsg.Name) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
