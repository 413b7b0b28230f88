package dnsresolver

import (
	"sync"
	"time"
)

// In-flight de-duplication of cache fills.
//
// Within a pass the cache never evicts and the clock stands still, so a
// serial pass fills each answer and each zone cut at most once, and every
// later resolution that needs it finds it cached. Parallel workers can
// instead miss on the same key while another worker is still filling it,
// and then both send the same exchanges. The flight table stops that:
// the first resolution to miss a key leads its fill; any other that
// misses meanwhile waits for the leader and then re-reads the cache. A
// follower never reuses the leader's reply, so a fill that leaves nothing
// in the cache (a failure, a NODATA probe, a zero TTL) is repeated, as a
// serial pass repeats it. What the table cannot undo is order: a
// resolution can find glue that one after it in the caller's order
// already cached, where a serial pass would have resolved that host.
//
// Keys are cacheKeys: an answer RRset (name, qtype), or a zone cut with a
// zero qtype. Each cache shard keeps the fills in flight for its keys
// under its own mutex, so an answer's miss and its join are one critical
// section. A zone cut's "miss" is earlier: the closestDelegation lookup at
// the start of the delegation walk. A cut another resolution cached since
// then counts as awaited; delegation entries carry the fill sequence
// number and the filler that tell. In a serial pass only the walk's own
// nested resolutions run in that gap, so the table never changes what a
// serial pass sends.

// flightShard is a cache shard's part of the flight table, guarded by the
// shard's mu.
type flightShard struct {
	// inflight lists the shard's keys being filled, with their leaders.
	// At most a few fills per worker are in flight at once, spread over
	// all shards, so a scanned slice beats a map.
	inflight []flight
	// landed is broadcast (on the shard's mu) whenever a fill lands.
	landed sync.Cond
}

// flight is one fill in flight.
type flight struct {
	key    cacheKey
	leader *resolveScratch
}

// leaderOf returns the leader of key's fill, or nil when none is in
// flight.
func (s *flightShard) leaderOf(key cacheKey) *resolveScratch {
	for i := range s.inflight {
		if s.inflight[i].key == key {
			return s.inflight[i].leader
		}
	}
	return nil
}

// claim is the outcome of a cache lookup that may join a fill.
type claim uint8

const (
	// claimHit: the entry is cached (possibly filled while waiting).
	claimHit claim = iota
	// claimLead: the caller fills the key and must land it.
	claimLead
	// claimSolo: fill the key without leading it, as a serial pass would.
	// The caller already leads it further up its own nesting, or waiting
	// for its leader would close a wait cycle.
	claimSolo
)

// maxWaitChain bounds setWait's walk. A chain is never longer than the
// number of resolutions running at once; past the bound, not waiting is
// the safe answer.
const maxWaitChain = 1 << 10

// join is called with s.mu held, after sc missed key, and returns with it
// held. For a zone cut, since is the fill sequence the walk started at.
func (c *cache) join(s *cacheShard, sc *resolveScratch, now time.Time, key cacheKey, since uint64) claim {
	// An answer's miss was just observed under this lock; a cut's miss
	// was at the walk's start, so it is checked again first.
	recheck := key.qtype == 0
	for {
		if recheck && s.landedLocked(sc, now, key, since) {
			return claimHit
		}
		recheck = true
		leader := s.leaderOf(key)
		switch leader {
		case nil:
			s.inflight = append(s.inflight, flight{key: key, leader: sc})
			return claimLead
		case sc:
			return claimSolo
		}
		s.mu.Unlock()
		ok := c.setWait(sc, leader, key)
		s.mu.Lock()
		if !ok {
			return claimSolo
		}
		for s.leaderOf(key) == leader {
			s.landed.Wait()
		}
		// waitMu is never taken under a shard lock: setWait holds it while
		// it locks shards.
		s.mu.Unlock()
		c.waitMu.Lock()
		sc.waitFor = nil
		c.waitMu.Unlock()
		s.mu.Lock()
	}
}

// landedLocked reports whether key is cached, as a fill by a resolution
// other than sc since fill sequence since for a zone cut. s.mu is held.
func (s *cacheShard) landedLocked(sc *resolveScratch, now time.Time, key cacheKey, since uint64) bool {
	if key.qtype != 0 {
		e, ok := s.answers[key]
		return ok && e.expires.After(now)
	}
	slot, ok := s.delegations[key.name]
	return ok && slot.entry.expires.After(now) && slot.seq > since && slot.by != sc
}

// land ends sc's fill of key, whatever it left in the cache, and wakes
// its waiters. The puts land their leader's fill themselves, in the same
// critical section; land is for fills that put nothing.
func (c *cache) land(sc *resolveScratch, key cacheKey) {
	s := c.shardFor(key.name)
	s.mu.Lock()
	s.landLocked(sc, key)
	s.mu.Unlock()
}

// landLocked lands sc's fill of key if sc leads one. s.mu is held.
func (s *flightShard) landLocked(sc *resolveScratch, key cacheKey) {
	for i, f := range s.inflight {
		if f.key == key && f.leader == sc {
			last := len(s.inflight) - 1
			s.inflight[i] = s.inflight[last]
			s.inflight[last] = flight{}
			s.inflight = s.inflight[:last]
			s.landed.Broadcast()
			return
		}
	}
}

// setWait records that sc is about to wait for leader's fill of key,
// unless leader is, through a chain of waits, waiting for sc: then it
// reports false and sc must not wait. Every edge is set under waitMu, so
// of the resolutions closing a cycle the last one sees the others' edges.
// An edge whose fill has landed is stale (its waiter has not woken yet)
// and ends the chain.
func (c *cache) setWait(sc, leader *resolveScratch, key cacheKey) bool {
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	x := leader
	for hops := 0; x != sc && hops < maxWaitChain; hops++ {
		next := x.waitFor
		if next == nil || !c.leads(next, x.waitKey) {
			sc.waitFor, sc.waitKey = leader, key
			return true
		}
		x = next
	}
	return false
}

// leads reports whether sc's fill of key is still in flight.
func (c *cache) leads(sc *resolveScratch, key cacheKey) bool {
	s := c.shardFor(key.name)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leaderOf(key) == sc
}
