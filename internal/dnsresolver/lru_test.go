package dnsresolver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/netsim"
)

// namesInShard generates n distinct names that all route to the same cache
// stripe, so a capacity test can exercise one shard's LRU list without
// caring how the total budget splits across stripes.
func namesInShard(t *testing.T, n int) []dnsmsg.Name {
	t.Helper()
	want := shardIndex("anchor.example.com")
	out := make([]dnsmsg.Name, 0, n)
	for i := 0; len(out) < n; i++ {
		if i > 1<<16 {
			t.Fatalf("could not find %d names in shard %d", n, want)
		}
		name := dnsmsg.Name(fmt.Sprintf("lru-%d.example.com", i))
		if shardIndex(name) == want {
			out = append(out, name)
		}
	}
	return out
}

// TestCacheCapacityEviction: a capped shard holds at most its budget,
// evicts least-recently-used first, and a get refreshes recency. The three
// entry kinds share one recency list, so cross-kind inserts evict too.
func TestCacheCapacityEviction(t *testing.T) {
	// Per-shard capacity of 2: total budget cacheShards*2 splits evenly.
	c := newCache(cacheShards * 2)
	now := time.Unix(1_000_000, 0)
	ttl := time.Hour
	names := namesInShard(t, 4)
	a, b, x, hostN := names[0], names[1], names[2], names[3]
	key := func(n dnsmsg.Name) cacheKey { return cacheKey{name: n, qtype: dnsmsg.TypeA} }
	shard := &c.shards[shardIndex(a)]

	c.putAnswer(now, key(a), answerEntry{}, ttl, nil)
	c.putAnswer(now, key(b), answerEntry{}, ttl, nil)
	if got := shard.size(); got != 2 {
		t.Fatalf("shard size = %d after two puts, want 2", got)
	}

	// Touch a, then insert x: b is now least recent and must be the victim.
	if _, ok := c.getAnswer(now, key(a)); !ok {
		t.Fatal("a missing before eviction")
	}
	c.putAnswer(now, key(x), answerEntry{}, ttl, nil)
	if got := shard.size(); got != 2 {
		t.Fatalf("shard size = %d after eviction, want 2", got)
	}
	if _, ok := c.getAnswer(now, key(b)); ok {
		t.Error("b survived eviction despite being least recently used")
	}
	if _, ok := c.getAnswer(now, key(a)); !ok {
		t.Error("a evicted despite recent touch")
	}
	if _, ok := c.getAnswer(now, key(x)); !ok {
		t.Error("x missing immediately after insert")
	}

	// A host-address insert shares the same recency list with answers: the
	// gets above touched a then x, so a is now least recent and is the
	// cross-kind victim.
	c.putHostAddr(now, hostN, netip.MustParseAddr("192.0.2.99"), ttl)
	if got := shard.size(); got != 2 {
		t.Fatalf("shard size = %d after cross-kind insert, want 2", got)
	}
	if _, ok := c.getAnswer(now, key(a)); ok {
		t.Error("a survived cross-kind eviction despite being least recent")
	}
	if _, ok := c.getHostAddr(now, hostN); !ok {
		t.Error("host-address entry missing after insert")
	}
	if _, ok := c.getAnswer(now, key(x)); !ok {
		t.Error("x evicted out of LRU order by cross-kind insert")
	}
}

// TestCacheUncappedNeverEvicts: capacity 0 keeps the historical
// grow-with-the-world behaviour — campaign determinism (query-count
// reports) relies on it.
func TestCacheUncappedNeverEvicts(t *testing.T) {
	c := newCache(0)
	now := time.Unix(1_000_000, 0)
	const n = 500
	for i := 0; i < n; i++ {
		key := cacheKey{name: dnsmsg.Name(fmt.Sprintf("u-%d.example.com", i)), qtype: dnsmsg.TypeA}
		c.putAnswer(now, key, answerEntry{}, time.Hour, nil)
	}
	if got := c.Len(now); got != n {
		t.Fatalf("uncapped cache Len = %d after %d puts, want %d", got, n, n)
	}
}

// TestCappedCacheValueEquivalence: a resolver whose cache is capped hard
// enough to evict constantly must still produce value-identical answers to
// an uncapped resolver over the same world — eviction may change which
// queries go upstream, never what they resolve to. The capped resolver is
// driven concurrently so the eviction/re-resolve churn runs under -race.
func TestCappedCacheValueEquivalence(t *testing.T) {
	f := newFixture(t)
	const n = 48
	names := make([]dnsmsg.Name, n)
	addrs := make([]netip.Addr, n)
	for i := range names {
		names[i] = dnsmsg.Name(fmt.Sprintf("pop-%d.example.com", i))
		addrs[i] = netip.AddrFrom4([4]byte{10, 2, byte(i >> 8), byte(i)})
		f.authZone.MustAdd(dnsmsg.NewA(names[i], time.Hour, addrs[i]))
	}

	// One entry per stripe: nearly every resolve evicts something.
	capped := New(Config{
		Network:       f.net,
		Clock:         f.clock,
		Addr:          netip.MustParseAddr("198.51.100.54"),
		Region:        netsim.RegionOregon,
		Roots:         []netip.Addr{f.rootAddr},
		Rand:          rand.New(rand.NewSource(7)),
		CacheCapacity: cacheShards,
	})

	check := func(tag string, r *Resolver, i int) {
		res, err := r.Resolve(names[i], dnsmsg.TypeA)
		if err != nil {
			t.Errorf("%s: Resolve(%s): %v", tag, names[i], err)
			return
		}
		if got := res.Addrs(); len(got) != 1 || got[0] != addrs[i] {
			t.Errorf("%s: Resolve(%s) = %v, want [%v]", tag, names[i], got, addrs[i])
		}
	}

	// Uncapped reference: every name, twice (cold then cached).
	for round := 0; round < 2; round++ {
		for i := range names {
			check("uncapped", f.resolver, i)
		}
	}

	// Capped, concurrent: workers sweep the population from different
	// offsets so gets, inserts, and evictions interleave across stripes.
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := 0; k < n; k++ {
					check("capped", capped, (w*7+k)%n)
				}
			}
		}(w)
	}
	wg.Wait()

	// And a final serial sweep: steady-state after the churn still agrees.
	for i := range names {
		check("capped-final", capped, i)
	}
}
