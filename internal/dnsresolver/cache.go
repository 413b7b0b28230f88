package dnsresolver

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/dethash"
	"rrdps/internal/dnsmsg"
)

// cacheKey identifies a cached answer RRset. The flight table also keys
// zone cuts by it, with a zero qtype.
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

// cacheShards is the lock-striping factor. Scan campaigns run dozens of
// workers against one resolver; 32 stripes keeps the probability of two
// workers colliding on one mutex low without bloating the struct.
const cacheShards = 32

// delegationSlot pairs a zone cut with its fill stamps: the cache's fill
// sequence number after it, and the resolution that made it (flight.go).
type delegationSlot struct {
	entry delegationEntry
	seq   uint64
	by    *resolveScratch
}

// cacheShard is one stripe: a mutex, its slice of each table, and the
// fills in flight.
type cacheShard struct {
	mu          sync.Mutex
	answers     map[cacheKey]answerEntry
	delegations map[dnsmsg.Name]delegationSlot
	hostAddrs   map[dnsmsg.Name]hostAddrEntry
	flightShard
}

func (s *cacheShard) init() {
	s.answers = make(map[cacheKey]answerEntry)
	s.delegations = make(map[dnsmsg.Name]delegationSlot)
	s.hostAddrs = make(map[dnsmsg.Name]hostAddrEntry)
	s.landed.L = &s.mu
}

// cache is the resolver's TTL-aware store, sharded so concurrent scan
// workers stop serializing on a single mutex. Entries are never served
// past their expiry. Nothing is evicted: the cache grows with the world
// until Purge empties it (the paper's collector purges its resolver cache
// before every daily run so snapshots stay independent, §IV-B.1). A hit
// writes nothing shared, so hot entries that every worker reads stay
// read-only: a resolution counts its lookups in its own scratch.
//
// Every entry kind (answers, delegations, host addresses) routes to a
// shard by an FNV-1a hash of the owner name, so all records for one name
// share a stripe while distinct names spread across all of them.
type cache struct {
	shards [cacheShards]cacheShard

	// fills counts delegation fills, stamping each (flight.go).
	fills atomic.Uint64
	// waitMu guards every resolution's wait edge (resolveScratch.waitFor
	// and waitKey), so a would-be waiter sees all the others'.
	waitMu sync.Mutex
}

// newCache creates an empty cache.
func newCache() *cache {
	c := &cache{}
	for i := range c.shards {
		c.shards[i].init()
	}
	return c
}

// shardFor routes a name to its stripe by FNV-1a over the name's bytes.
func (c *cache) shardFor(name dnsmsg.Name) *cacheShard {
	h := uint64(dethash.Offset)
	for i := 0; i < len(name); i++ {
		h = dethash.Byte(h, name[i])
	}
	return &c.shards[h%cacheShards]
}

// Purge empties every table (the maps keep their buckets for the next
// pass). A put racing with Purge may land in an already-cleared stripe,
// which is fine for the campaigns (they purge between runs, while the
// resolver is idle) and harmless otherwise (the entry is valid, just not
// forgotten).
func (c *cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		clear(s.answers)
		clear(s.delegations)
		clear(s.hostAddrs)
		s.mu.Unlock()
	}
}

// lookupAnswer looks key up for resolution sc. On a miss, sc joins the
// key's fill (flight.go): it leads it, fills it solo, or waits for the
// leader and re-reads, which is a hit when the leader cached the entry;
// sc counts the lookup as the miss it was. A nil sc counts nothing, joins
// nothing and reports a miss as claimSolo.
func (c *cache) lookupAnswer(sc *resolveScratch, now time.Time, key cacheKey) (answerEntry, claim) {
	s := c.shardFor(key.name)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.answers[key]
	hit := ok && e.expires.After(now)
	if sc != nil {
		sc.lookups.count(hit)
	}
	switch {
	case hit:
		return e, claimHit
	case sc == nil:
		return answerEntry{}, claimSolo
	}
	if cl := c.join(s, sc, now, key, 0); cl != claimHit {
		return answerEntry{}, cl
	}
	return s.answers[key], claimHit
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
	s.answers[key] = e
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
	s.delegations[zone] = delegationSlot{entry: e, seq: c.fills.Add(1), by: by}
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
		s := c.shardFor(zone)
		s.mu.Lock()
		slot, ok := s.delegations[zone]
		s.mu.Unlock()
		if ok && slot.entry.expires.After(now) {
			return zone, slot.entry.hosts, true
		}
	}
	return "", nil, false
}

func (c *cache) getHostAddr(now time.Time, host dnsmsg.Name) (netip.Addr, bool) {
	s := c.shardFor(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.hostAddrs[host]
	if !ok || !e.expires.After(now) {
		return netip.Addr{}, false
	}
	return e.addr, true
}

func (c *cache) putHostAddr(now time.Time, host dnsmsg.Name, addr netip.Addr, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	s := c.shardFor(host)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hostAddrs[host] = hostAddrEntry{addr: addr, expires: now.Add(ttl)}
}
