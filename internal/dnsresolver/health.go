package dnsresolver

import (
	"maps"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/dnsmsg"
)

// EWMA-RTT parameters for latency-adaptive selection.
const (
	// rttEwmaDecay is the smoothing divisor for folding a pass's observed
	// RTT into the running estimate (the dnscrypt-proxy value: each pass
	// moves the estimate 1/10th of the way to the new observation).
	rttEwmaDecay = 10.0
	// rttTimeoutPenalty is the RTT charged to a server whose pass produced
	// only timeouts — well above any real simulated RTT, so persistent
	// timeouts push a server's estimate toward the back of the pack even
	// before sidelining kicks in.
	rttTimeoutPenalty = time.Second
)

// Health tracks per-nameserver availability from observed query outcomes
// and sidelines servers that keep timing out.
//
// Observations accumulate as per-pass booleans (did the server answer at
// all? did it time out at all?) and fold into sidelining decisions only
// at Checkpoint, which the measurement loops call at pass boundaries
// while the world is quiescent. Two properties follow:
//
//   - Within a pass the sideline set is frozen, so server selection is
//     identical however the pass's queries interleave.
//   - The per-pass booleans are order-independent (a set union), so the
//     checkpoint decision is too: serial and parallel passes that observe
//     the same logical outcomes sideline the same servers.
//
// A server with SidelineAfter consecutive all-timeout passes is sidelined
// for SidelineFor passes, then probed back in: it becomes selectable
// again, and the next pass's outcomes decide whether it stays.
//
// The per-exchange paths take no lock. Folded state (sideline sentences,
// EWMA estimates) is written only by Checkpoint and RestoreState, which
// run while the fabric is quiescent, so within a pass it is read-only and
// readers need no lock. The entry table a pass reads is published through
// an atomic pointer and replaced, never mutated, at those same
// boundaries. Observations are atomics that read before they write, so a
// server every worker keeps hitting costs a shared cache line, not a
// contended one. Only observations of a server first seen during the
// pass take mu: it sits in the fresh table until Checkpoint folds that
// into the next published table, which keeps inserts O(1) amortized (the
// fold already visits every entry).
type Health struct {
	// table is the published entry table: every server known at the last
	// Checkpoint or RestoreState.
	table atomic.Pointer[map[netip.Addr]*healthEntry]

	mu     sync.Mutex
	fresh  map[netip.Addr]*healthEntry // servers first observed this pass
	events uint64                      // total sideline transitions
}

type healthEntry struct {
	// Current-pass observations (set union / min; order-independent).
	sawSuccess atomic.Bool
	sawTimeout atomic.Bool
	// passMinRTT is the smallest RTT observed this pass in nanoseconds
	// (0 = none). Min is the fold that keeps serial≡parallel: racing
	// workers may duplicate a logical query, but duplicates carry
	// identical content-hashed RTTs, so the pass minimum is the same set
	// function either way.
	passMinRTT atomic.Int64
	// Folded state, mutated only in Checkpoint and RestoreState.
	consecBadPasses int
	sidelinedFor    int
	sidelined       uint64  // times this server was sidelined
	ewmaRTT         float64 // smoothed RTT estimate in nanoseconds; 0 = none
}

// NewHealth creates an empty tracker.
func NewHealth() *Health {
	h := &Health{fresh: make(map[netip.Addr]*healthEntry)}
	h.publish(make(map[netip.Addr]*healthEntry))
	return h
}

func (h *Health) publish(m map[netip.Addr]*healthEntry) { h.table.Store(&m) }

// known returns addr's entry in the published table. A server missing
// from it has no folded state: it is available and has no estimate.
func (h *Health) known(addr netip.Addr) (*healthEntry, bool) {
	e, ok := (*h.table.Load())[addr]
	return e, ok
}

// entry returns addr's entry for recording an observation, adding it to
// the fresh table when the server is new this pass.
func (h *Health) entry(addr netip.Addr) *healthEntry {
	if e, ok := h.known(addr); ok {
		return e
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if e, ok := h.known(addr); ok {
		return e
	}
	e, ok := h.fresh[addr]
	if !ok {
		e = &healthEntry{}
		h.fresh[addr] = e
	}
	return e
}

// setFlag sets b, skipping the write when it is already set.
func setFlag(b *atomic.Bool) {
	if !b.Load() {
		b.Store(true)
	}
}

// ObserveSuccess records that addr answered a query this pass.
func (h *Health) ObserveSuccess(addr netip.Addr) { setFlag(&h.entry(addr).sawSuccess) }

// ObserveTimeout records that a query to addr timed out this pass.
func (h *Health) ObserveTimeout(addr netip.Addr) { setFlag(&h.entry(addr).sawTimeout) }

// ObserveRTT records the round-trip time of a successful exchange with
// addr this pass. Only the pass minimum is kept.
func (h *Health) ObserveRTT(addr netip.Addr, rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	m := &h.entry(addr).passMinRTT
	for {
		cur := m.Load()
		if cur != 0 && cur <= int64(rtt) {
			return
		}
		if m.CompareAndSwap(cur, int64(rtt)) {
			return
		}
	}
}

// entriesLocked publishes a table holding the fresh entries too, empties
// the fresh table, and returns the new table. Caller holds h.mu and the
// fabric is quiescent.
func (h *Health) entriesLocked() map[netip.Addr]*healthEntry {
	m := *h.table.Load()
	if len(h.fresh) == 0 {
		return m
	}
	m = maps.Clone(m)
	for addr, e := range h.fresh {
		m[addr] = e
	}
	clear(h.fresh)
	h.publish(m)
	return m
}

// Checkpoint folds the pass's observations into sideline state under the
// given policy and resets them. Call it at pass boundaries only, from one
// goroutine, while no queries are in flight.
func (h *Health) Checkpoint(p Policy) {
	p = p.normalized()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range h.entriesLocked() {
		sawSuccess, sawTimeout := e.sawSuccess.Load(), e.sawTimeout.Load()
		passMinRTT := time.Duration(e.passMinRTT.Load())
		e.sawSuccess.Store(false)
		e.sawTimeout.Store(false)
		e.passMinRTT.Store(0)
		if e.sidelinedFor > 0 {
			// Sitting out; observations (there should be none unless every
			// candidate was sidelined) don't count against the sentence.
			e.sidelinedFor--
			continue
		}
		// Fold the pass's RTT evidence into the smoothed estimate: the
		// pass-minimum when the server answered, a penalty charge when it
		// only timed out. Both are order-independent summaries, so the
		// post-checkpoint estimate is too.
		switch {
		case passMinRTT > 0:
			e.foldRTT(float64(passMinRTT))
		case sawTimeout:
			e.foldRTT(float64(rttTimeoutPenalty))
		}
		switch {
		case sawSuccess:
			e.consecBadPasses = 0
		case sawTimeout:
			e.consecBadPasses++
			if p.SidelineAfter > 0 && e.consecBadPasses >= p.SidelineAfter {
				e.sidelinedFor = p.SidelineFor
				e.consecBadPasses = 0
				e.sidelined++
				h.events++
			}
		}
	}
}

// foldRTT moves the EWMA estimate 1/rttEwmaDecay of the way toward x
// (nanoseconds); the first observation seeds it outright.
func (e *healthEntry) foldRTT(x float64) {
	if e.ewmaRTT == 0 {
		e.ewmaRTT = x
		return
	}
	e.ewmaRTT += (x - e.ewmaRTT) / rttEwmaDecay
}

// Sidelined returns the currently sidelined server addresses, sorted.
func (h *Health) Sidelined() []netip.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []netip.Addr
	for addr, e := range *h.table.Load() {
		if e.sidelinedFor > 0 {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Events returns the total number of sideline transitions ever made.
func (h *Health) Events() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.events
}

// HealthState is a Health tracker's serializable shape: every entry's
// folded sideline state plus its not-yet-folded per-pass observations
// (a checkpoint can land between observations and the pass-boundary
// Checkpoint call), and the lifetime event counter.
type HealthState struct {
	Entries []HealthEntryState
	Events  uint64
}

// HealthEntryState is one server's health record. The RTT fields were
// added with EWMA selection; checkpoints written before then decode with
// zero values, which the tracker treats as "no estimate yet".
type HealthEntryState struct {
	Addr            netip.Addr
	SawSuccess      bool
	SawTimeout      bool
	ConsecBadPasses int
	SidelinedFor    int
	Sidelined       uint64
	PassMinRTT      time.Duration `json:",omitempty"`
	EwmaRTT         float64       `json:",omitempty"`
}

// ExportState captures the tracker's state, entries sorted by address
// for a deterministic encoding.
func (h *Health) ExportState() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HealthState{Events: h.events}
	export := func(m map[netip.Addr]*healthEntry) {
		for addr, e := range m {
			st.Entries = append(st.Entries, HealthEntryState{
				Addr:            addr,
				SawSuccess:      e.sawSuccess.Load(),
				SawTimeout:      e.sawTimeout.Load(),
				ConsecBadPasses: e.consecBadPasses,
				SidelinedFor:    e.sidelinedFor,
				Sidelined:       e.sidelined,
				PassMinRTT:      time.Duration(e.passMinRTT.Load()),
				EwmaRTT:         e.ewmaRTT,
			})
		}
	}
	export(*h.table.Load())
	export(h.fresh)
	sort.Slice(st.Entries, func(i, j int) bool { return st.Entries[i].Addr.Less(st.Entries[j].Addr) })
	return st
}

// RestoreState overwrites the tracker's state from an export — the
// campaign resume path, so sideline sentences and bad-pass streaks
// carry across a restart exactly.
func (h *Health) RestoreState(st HealthState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.events = st.Events
	m := make(map[netip.Addr]*healthEntry, len(st.Entries))
	for _, e := range st.Entries {
		he := &healthEntry{
			consecBadPasses: e.ConsecBadPasses,
			sidelinedFor:    e.SidelinedFor,
			sidelined:       e.Sidelined,
			ewmaRTT:         e.EwmaRTT,
		}
		he.sawSuccess.Store(e.SawSuccess)
		he.sawTimeout.Store(e.SawTimeout)
		he.passMinRTT.Store(int64(e.PassMinRTT))
		m[e.Addr] = he
	}
	clear(h.fresh)
	h.publish(m)
}

// filterAvailable returns the available subset of servers in order; when
// every candidate is sidelined it returns servers unchanged, so health
// can degrade selection but never strand a query.
func filterAvailable(table map[netip.Addr]*healthEntry, servers []netip.Addr) []netip.Addr {
	// Common case first: nothing sidelined means servers passes through
	// without a copy — the resolve hot path never pays for the rare one.
	sidelined := false
	for _, s := range servers {
		if e, ok := table[s]; ok && e.sidelinedFor > 0 {
			sidelined = true
			break
		}
	}
	if !sidelined {
		return servers
	}
	avail := servers[:0:0]
	for _, s := range servers {
		if e, ok := table[s]; !ok || e.sidelinedFor == 0 {
			avail = append(avail, s)
		}
	}
	if len(avail) == 0 {
		return servers
	}
	return avail
}

// planExchange filters sidelined servers and picks the starting candidate
// index per the policy's selection strategy, reading one published table
// and taking no lock.
//
// With SelectP2C the two "choices" are the candidates with the top two
// rendezvous weights — each server's weight is a hash of (seed, server,
// query identity), computed per candidate rather than by indexing into
// the list — and the lower EWMA-RTT estimate wins. A server without an
// estimate (EWMA 0) beats any measured one so unexplored servers get
// measured; ties resolve to the higher rendezvous weight. Two properties
// follow:
//
//   - Estimates only move at Checkpoint, so within a pass the pick is a
//     pure function of the query identity — independent of scheduling.
//   - Weights attach to servers, not list positions, so when two runs see
//     slightly different candidate sets for the same logical query (host
//     addresses can be warmth-dependent: one run resolves a nameserver
//     from glue an earlier referral cached, the other finds its lookup
//     eaten by the fault plan) the pick still agrees whenever both runs
//     hold the top-two weighted servers. An index-derived pick (hash mod
//     len) would diverge on every such set difference.
func (h *Health) planExchange(sel Selection, seed int64, servers []netip.Addr, name dnsmsg.Name, qtype dnsmsg.Type) ([]netip.Addr, int) {
	table := *h.table.Load()
	cands := filterAvailable(table, servers)
	if sel != SelectP2C || len(cands) < 2 {
		return cands, 0
	}
	// Rendezvous scan: i gets the max-weight candidate, j the runner-up.
	// Attempt 0 keeps the weight stream disjoint from query IDs and
	// backoff draws, which hash attempts >= 1.
	i, j := -1, -1
	var wi, wj uint64
	for k, s := range cands {
		w := queryHash(seed, s, name, qtype, 0)
		switch {
		case i < 0 || w > wi:
			j, wj = i, wi
			i, wi = k, w
		case j < 0 || w > wj:
			j, wj = k, w
		}
	}
	var ei, ej float64
	if e, ok := table[cands[i]]; ok {
		ei = e.ewmaRTT
	}
	if e, ok := table[cands[j]]; ok {
		ej = e.ewmaRTT
	}
	// Lower estimate wins, but only when both servers are measured; if
	// either estimate is absent (EWMA 0) the max-weight candidate keeps
	// the slot. Favoring unexplored servers would read "has this server
	// been measured yet" into the pick, and that bit is warmth-dependent
	// (a run that answered from cache never queried the server) — exactly
	// the scheduling sensitivity selection must not have. Ties also keep
	// the max-weight candidate.
	if ei != 0 && ej != 0 && ej < ei {
		return cands, j
	}
	return cands, i
}
