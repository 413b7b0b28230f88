package dnsresolver

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/obs"
)

// cacheKey identifies a cached answer RRset. Delegation and host-address
// entries reuse it with a zero qtype (the kind byte on the LRU node keeps
// the namespaces apart).
type cacheKey struct {
	name  dnsmsg.Name
	qtype dnsmsg.Type
}

// answerEntry is a cached positive or negative answer.
type answerEntry struct {
	// chain is the CNAME chain (possibly empty) leading to the answer.
	chain []dnsmsg.RR
	// answers are the records of the requested type at the chain's end.
	answers []dnsmsg.RR
	// rcode distinguishes NXDOMAIN negative entries.
	rcode   dnsmsg.RCode
	expires time.Time
}

// delegationEntry caches a zone cut: the nameserver names for a zone.
type delegationEntry struct {
	hosts   []dnsmsg.Name
	expires time.Time
}

// hostAddrEntry caches one nameserver host's address.
type hostAddrEntry struct {
	addr    netip.Addr
	expires time.Time
}

// Entry kinds, stored on LRU nodes so eviction knows which table to
// delete from.
const (
	kindAnswer = iota
	kindDelegation
	kindHostAddr
)

// cacheShards is the lock-striping factor. Scan campaigns run dozens of
// workers against one resolver; 32 stripes keeps the probability of two
// workers colliding on one mutex low without bloating the struct.
const cacheShards = 32

// noNode marks an absent LRU link.
const noNode = int32(-1)

// lruNode is one entry's position in a shard's recency list. Nodes live
// in a flat slice and link by index; freed nodes go on a freelist and are
// reused, so steady-state churn allocates nothing.
type lruNode struct {
	key  cacheKey
	kind uint8
	prev int32
	next int32
}

// answerSlot et al. pair an entry with its generation stamp and LRU node.
type answerSlot struct {
	entry answerEntry
	gen   uint64
	node  int32
}

type delegationSlot struct {
	entry delegationEntry
	gen   uint64
	node  int32
	// seq and by stamp the fill: the cache's fill sequence number after
	// it, and the resolution that made it (flight.go).
	seq uint64
	by  *resolveScratch
}

type hostAddrSlot struct {
	entry hostAddrEntry
	gen   uint64
	node  int32
}

// cacheShard is one stripe: a mutex, its slice of each table, the shared
// recency list, the current generation, and the fills in flight.
type cacheShard struct {
	mu          sync.Mutex
	gen         uint64
	answers     map[cacheKey]answerSlot
	delegations map[dnsmsg.Name]delegationSlot
	hostAddrs   map[dnsmsg.Name]hostAddrSlot
	flightShard

	nodes    []lruNode
	head     int32 // most recently used
	tail     int32 // least recently used
	freeHead int32
	capacity int // max entries in this shard; 0 = unbounded
}

func (s *cacheShard) init(capacity int) {
	s.answers = make(map[cacheKey]answerSlot)
	s.delegations = make(map[dnsmsg.Name]delegationSlot)
	s.hostAddrs = make(map[dnsmsg.Name]hostAddrSlot)
	s.landed.L = &s.mu
	s.head, s.tail, s.freeHead = noNode, noNode, noNode
	s.capacity = capacity
}

// newNode takes a node off the freelist (or grows the arena) and links it
// at the head of the recency list.
func (s *cacheShard) newNode(kind uint8, key cacheKey) int32 {
	var i int32
	if s.freeHead != noNode {
		i = s.freeHead
		s.freeHead = s.nodes[i].next
	} else {
		s.nodes = append(s.nodes, lruNode{})
		i = int32(len(s.nodes) - 1)
	}
	s.nodes[i] = lruNode{key: key, kind: kind, prev: noNode, next: s.head}
	if s.head != noNode {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail == noNode {
		s.tail = i
	}
	return i
}

// unlink removes node i from the recency list (it stays allocated).
func (s *cacheShard) unlink(i int32) {
	n := &s.nodes[i]
	if n.prev != noNode {
		s.nodes[n.prev].next = n.next
	} else {
		s.head = n.next
	}
	if n.next != noNode {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = noNode, noNode
}

// free returns node i to the freelist.
func (s *cacheShard) free(i int32) {
	s.unlink(i)
	s.nodes[i] = lruNode{next: s.freeHead}
	s.freeHead = i
}

// touch moves node i to the head of the recency list.
func (s *cacheShard) touch(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	n := &s.nodes[i]
	n.next = s.head
	if s.head != noNode {
		s.nodes[s.head].prev = i
	}
	s.head = i
	if s.tail == noNode {
		s.tail = i
	}
}

// size returns the shard's total entry count (all generations).
func (s *cacheShard) size() int {
	return len(s.answers) + len(s.delegations) + len(s.hostAddrs)
}

// deleteEntry removes the entry behind node i from its table and frees
// the node.
func (s *cacheShard) deleteEntry(i int32) {
	n := s.nodes[i]
	switch n.kind {
	case kindAnswer:
		delete(s.answers, n.key)
	case kindDelegation:
		delete(s.delegations, n.key.name)
	case kindHostAddr:
		delete(s.hostAddrs, n.key.name)
	}
	s.free(i)
}

// used records a hit on node i. Only a capped shard keeps recency order;
// an uncapped one skips the write, so hot entries that every worker reads
// stay read-only.
func (s *cacheShard) used(i int32) {
	if s.capacity > 0 {
		s.touch(i)
	}
}

// reclaim drops the stale or expired entry behind node i from a capped
// shard. An uncapped shard leaves it for the next put of its key or the
// next Purge.
func (s *cacheShard) reclaim(i int32) {
	if s.capacity > 0 {
		s.deleteEntry(i)
	}
}

// link returns the recency node for a new entry: a fresh list head in a
// capped shard, noNode in an uncapped one.
func (s *cacheShard) link(kind uint8, key cacheKey) int32 {
	if s.capacity == 0 {
		return noNode
	}
	return s.newNode(kind, key)
}

// evictOver trims the shard to capacity from the LRU tail. Stale
// generations drift tailward on their own (nothing touches them), so a
// capped cache sheds purged entries before live ones.
func (s *cacheShard) evictOver() {
	if s.capacity <= 0 {
		return
	}
	for s.size() > s.capacity && s.tail != noNode {
		s.deleteEntry(s.tail)
	}
}

// cache is the resolver's TTL-aware store, sharded so concurrent scan
// workers stop serializing on a single mutex. Entries are never served
// past their expiry or from a previous generation; Purge bumps every
// shard's generation in O(1) (the paper's collector purges its resolver
// cache before every daily run so snapshots stay independent, §IV-B.1).
//
// With a capacity configured, each shard keeps one recency list across
// its three tables and inserts evict least-recently-used entries. The
// default capacity of 0 keeps the historical grow-with-the-world
// behaviour, which campaign determinism (query-count-bearing reports)
// relies on; such a cache keeps no recency list at all (a hit writes
// nothing) and Purge drops every entry outright.
//
// Every entry kind (answers, delegations, host addresses) routes to a
// shard by an FNV-1a hash of the owner name, so all records for one name
// share a stripe while distinct names spread across all of them.
type cache struct {
	shards [cacheShards]cacheShard

	// obs is atomic so lookups never contend on a process-wide mutex —
	// that would undo the sharding.
	obs atomic.Pointer[cacheObs]

	// fills counts delegation fills, stamping each (flight.go).
	fills atomic.Uint64
	// waitMu guards every resolution's wait edge (resolveScratch.waitFor
	// and waitKey), so a would-be waiter sees all the others'.
	waitMu sync.Mutex
}

// newCache creates a cache. capacity is the approximate total entry
// budget, split evenly across shards; 0 means unbounded.
func newCache(capacity int) *cache {
	perShard := 0
	if capacity > 0 {
		perShard = (capacity + cacheShards - 1) / cacheShards
		if perShard < 1 {
			perShard = 1
		}
	}
	c := &cache{}
	for i := range c.shards {
		c.shards[i].init(perShard)
	}
	return c
}

// shardIndex routes a name to its stripe index by FNV-1a over the name's
// bytes.
func shardIndex(name dnsmsg.Name) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h = fnvByte(h, name[i])
	}
	return int(h % cacheShards)
}

// shardFor routes a name to its stripe.
func (c *cache) shardFor(name dnsmsg.Name) *cacheShard {
	return &c.shards[shardIndex(name)]
}

// setObserver installs a metrics registry for per-stripe hit/miss
// accounting; nil uninstalls.
func (c *cache) setObserver(r *obs.Registry) {
	c.obs.Store(newCacheObs(r))
}

// Purge makes every cached entry invisible by bumping each shard's
// generation. A capped cache reclaims old-generation entries lazily, on
// the next access to their key or by LRU eviction, since stale entries
// drift to the recency tail on their own. An uncapped cache has no
// recency list to age them out, so Purge empties its tables instead (the
// maps keep their buckets for the next pass). A put racing with Purge may
// land pre-bump and survive in an already-bumped stripe, which is fine
// for the campaigns (they purge between runs, while the resolver is idle)
// and harmless otherwise (the entry is valid, just not forgotten).
func (c *cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.gen++
		if s.capacity == 0 {
			clear(s.answers)
			clear(s.delegations)
			clear(s.hostAddrs)
		}
		s.mu.Unlock()
	}
}

// Len returns the total number of live entries at now, summed across
// shards.
func (c *cache) Len(now time.Time) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.answers {
			if e.gen == s.gen && e.entry.expires.After(now) {
				n++
			}
		}
		for _, e := range s.delegations {
			if e.gen == s.gen && e.entry.expires.After(now) {
				n++
			}
		}
		for _, e := range s.hostAddrs {
			if e.gen == s.gen && e.entry.expires.After(now) {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// lookupAnswer looks key up for resolution sc. On a miss, sc joins the
// key's fill (flight.go): it leads it, fills it solo, or waits for the
// leader and re-reads, which is a hit when the leader cached the entry.
// A nil sc joins nothing and reports a miss as claimSolo.
func (c *cache) lookupAnswer(sc *resolveScratch, now time.Time, key cacheKey) (answerEntry, claim) {
	idx := shardIndex(key.name)
	s := &c.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.answers[key]
	if !ok || slot.gen != s.gen || !slot.entry.expires.After(now) {
		if ok {
			s.reclaim(slot.node)
		}
		c.obs.Load().observe(idx, false)
		if sc == nil {
			return answerEntry{}, claimSolo
		}
		if cl := c.join(s, sc, now, key, 0); cl != claimHit {
			return answerEntry{}, cl
		}
		return s.answers[key].entry, claimHit
	}
	s.used(slot.node)
	c.obs.Load().observe(idx, true)
	return slot.entry, claimHit
}

// putAnswer caches e under key for ttl and lands the fill of key that
// leader leads, if any (flight.go).
func (c *cache) putAnswer(now time.Time, key cacheKey, e answerEntry, ttl time.Duration, leader *resolveScratch) {
	if ttl <= 0 {
		// Zero-TTL answers are never cached.
		if leader != nil {
			c.land(leader, key)
		}
		return
	}
	e.expires = now.Add(ttl)
	s := c.shardFor(key.name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if leader != nil {
		s.landLocked(leader, key)
	}
	if slot, ok := s.answers[key]; ok {
		s.used(slot.node)
		s.answers[key] = answerSlot{entry: e, gen: s.gen, node: slot.node}
		return
	}
	node := s.link(kindAnswer, key)
	s.answers[key] = answerSlot{entry: e, gen: s.gen, node: node}
	s.evictOver()
}

// getDelegation returns the cached nameserver hosts for zone. The slice
// is shared with the cache; callers must not mutate it.
func (c *cache) getDelegation(now time.Time, zone dnsmsg.Name) ([]dnsmsg.Name, bool) {
	idx := shardIndex(zone)
	s := &c.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.delegations[zone]
	if !ok || slot.gen != s.gen || !slot.entry.expires.After(now) {
		if ok {
			s.reclaim(slot.node)
		}
		c.obs.Load().observe(idx, false)
		return nil, false
	}
	s.used(slot.node)
	c.obs.Load().observe(idx, true)
	return slot.entry.hosts, true
}

// putDelegation caches the zone cut at zone, filled by resolution by,
// and lands by's fill of the cut if it leads it (flight.go).
func (c *cache) putDelegation(now time.Time, zone dnsmsg.Name, hosts []dnsmsg.Name, ttl time.Duration, by *resolveScratch) {
	key := cacheKey{name: zone}
	if ttl <= 0 || len(hosts) == 0 {
		if by != nil {
			c.land(by, key)
		}
		return
	}
	e := delegationEntry{
		hosts:   append([]dnsmsg.Name(nil), hosts...),
		expires: now.Add(ttl),
	}
	s := c.shardFor(zone)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.landLocked(by, key)
	seq := c.fills.Add(1)
	if slot, ok := s.delegations[zone]; ok {
		s.used(slot.node)
		s.delegations[zone] = delegationSlot{entry: e, gen: s.gen, node: slot.node, seq: seq, by: by}
		return
	}
	node := s.link(kindDelegation, key)
	s.delegations[zone] = delegationSlot{entry: e, gen: s.gen, node: node, seq: seq, by: by}
	s.evictOver()
}

// joinCut is the flight-table join (flight.go) of resolution sc for the
// zone cut at zone, which its walk, started at fill sequence since, is
// about to probe. On claimHit it returns the cut's hosts, shared with the
// cache: callers must not mutate them.
func (c *cache) joinCut(sc *resolveScratch, now time.Time, zone dnsmsg.Name, since uint64) ([]dnsmsg.Name, claim) {
	s := c.shardFor(zone)
	s.mu.Lock()
	defer s.mu.Unlock()
	if cl := c.join(s, sc, now, cacheKey{name: zone}, since); cl != claimHit {
		return nil, cl
	}
	return s.delegations[zone].entry.hosts, claimHit
}

// closestDelegation returns the cached zone cut deepest along name's
// ancestry, if any. Each ancestor zone hashes to its own shard, so the
// walk locks at most one stripe at a time. The returned hosts slice is
// shared with the cache; callers must not mutate it.
func (c *cache) closestDelegation(now time.Time, name dnsmsg.Name) (dnsmsg.Name, []dnsmsg.Name, bool) {
	for zone := name; !zone.IsRoot(); zone = zone.Parent() {
		idx := shardIndex(zone)
		s := &c.shards[idx]
		s.mu.Lock()
		slot, ok := s.delegations[zone]
		if ok && slot.gen == s.gen && slot.entry.expires.After(now) {
			s.used(slot.node)
			hosts := slot.entry.hosts
			s.mu.Unlock()
			// The whole walk counts as one lookup, attributed to the
			// stripe that satisfied it.
			c.obs.Load().observe(idx, true)
			return zone, hosts, true
		}
		s.mu.Unlock()
	}
	c.obs.Load().observe(shardIndex(name), false)
	return "", nil, false
}

func (c *cache) getHostAddr(now time.Time, host dnsmsg.Name) (netip.Addr, bool) {
	idx := shardIndex(host)
	s := &c.shards[idx]
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.hostAddrs[host]
	if !ok || slot.gen != s.gen || !slot.entry.expires.After(now) {
		if ok {
			s.reclaim(slot.node)
		}
		c.obs.Load().observe(idx, false)
		return netip.Addr{}, false
	}
	s.used(slot.node)
	c.obs.Load().observe(idx, true)
	return slot.entry.addr, true
}

func (c *cache) putHostAddr(now time.Time, host dnsmsg.Name, addr netip.Addr, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	e := hostAddrEntry{addr: addr, expires: now.Add(ttl)}
	s := c.shardFor(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.hostAddrs[host]; ok {
		s.used(slot.node)
		s.hostAddrs[host] = hostAddrSlot{entry: e, gen: s.gen, node: slot.node}
		return
	}
	node := s.link(kindHostAddr, cacheKey{name: host})
	s.hostAddrs[host] = hostAddrSlot{entry: e, gen: s.gen, node: node}
	s.evictOver()
}
