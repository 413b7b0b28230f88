package dnsresolver

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
)

func cacheTestName(i int) dnsmsg.Name {
	return dnsmsg.Name(fmt.Sprintf("host-%03d.example.com", i))
}

// TestCacheShardRouting checks that every entry kind round-trips through
// the sharded store and that distinct names actually spread across stripes.
func TestCacheShardRouting(t *testing.T) {
	c := newCache()
	now := time.Unix(1000, 0)
	hit := make(map[*cacheShard]bool)
	for i := 0; i < 256; i++ {
		name := cacheTestName(i)
		hit[c.shardFor(name)] = true
		key := cacheKey{name: name, qtype: dnsmsg.TypeA}
		addr := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		c.putAnswer(now, key, answerEntry{answers: []dnsmsg.RR{dnsmsg.NewA(name, time.Minute, addr)}}, time.Minute, nil)
		c.putDelegation(now, name, []dnsmsg.Name{"ns." + name}, time.Minute, nil)
		c.putHostAddr(now, name, addr, time.Minute)

		if e, ok := c.getAnswer(now, key); !ok || len(e.answers) != 1 {
			t.Fatalf("answer for %s missing after put", name)
		}
		if hosts, ok := c.getDelegation(now, name); !ok || len(hosts) != 1 {
			t.Fatalf("delegation for %s missing after put", name)
		}
		if got, ok := c.getHostAddr(now, name); !ok || got != addr {
			t.Fatalf("host addr for %s = %v, %v", name, got, ok)
		}
	}
	if len(hit) < cacheShards/2 {
		t.Fatalf("256 names hit only %d of %d shards: hash is not spreading", len(hit), cacheShards)
	}
}

// TestCacheLenAcrossShards checks the Len sum is consistent with the
// number of live entries spread over all stripes, including expiry.
func TestCacheLenAcrossShards(t *testing.T) {
	c := newCache()
	now := time.Unix(1000, 0)
	const n = 100
	for i := 0; i < n; i++ {
		name := cacheTestName(i)
		ttl := time.Minute
		if i%2 == 1 {
			ttl = time.Second // expires early
		}
		c.putHostAddr(now, name, netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), ttl)
	}
	if got := c.Len(now); got != n {
		t.Fatalf("Len(now) = %d, want %d", got, n)
	}
	if got := c.Len(now.Add(30 * time.Second)); got != n/2 {
		t.Fatalf("Len(now+30s) = %d, want %d", got, n/2)
	}
	c.Purge()
	if got := c.Len(now); got != 0 {
		t.Fatalf("Len after Purge = %d, want 0", got)
	}
}

// TestCacheNeverEvicts: the cache grows with the world until Purge. The
// flight table's premise (flight.go) and the query counts the campaign
// reports carry both rely on it.
func TestCacheNeverEvicts(t *testing.T) {
	c := newCache()
	now := time.Unix(1_000_000, 0)
	const n = 500
	for i := 0; i < n; i++ {
		key := cacheKey{name: dnsmsg.Name(fmt.Sprintf("u-%d.example.com", i)), qtype: dnsmsg.TypeA}
		c.putAnswer(now, key, answerEntry{}, time.Hour, nil)
	}
	if got := c.Len(now); got != n {
		t.Fatalf("cache Len = %d after %d puts, want %d", got, n, n)
	}
}

// TestCacheConcurrentStress mixes puts, gets, Purge, Len, and
// closestDelegation from many goroutines. The race detector covers the
// striping; the value checks cover torn reads.
func TestCacheConcurrentStress(t *testing.T) {
	c := newCache()
	now := time.Unix(1000, 0)
	addrOf := func(i int) netip.Addr {
		return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)})
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Purge()
				c.Len(now)
			}
		}
	}()
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				i := (g*500 + j) % 64
				name := cacheTestName(i)
				key := cacheKey{name: name, qtype: dnsmsg.TypeA}
				want := addrOf(i)
				c.putAnswer(now, key, answerEntry{answers: []dnsmsg.RR{dnsmsg.NewA(name, time.Minute, want)}}, time.Minute, nil)
				c.putDelegation(now, name, []dnsmsg.Name{"ns." + name}, time.Minute, nil)
				c.putHostAddr(now, name, want, time.Minute)
				if e, ok := c.getAnswer(now, key); ok {
					if len(e.answers) != 1 || e.answers[0].Data.(dnsmsg.AData).Addr != want {
						t.Errorf("torn answer for %s: %+v", name, e)
						return
					}
				}
				if got, ok := c.getHostAddr(now, name); ok && got != want {
					t.Errorf("torn host addr for %s: %v", name, got)
					return
				}
				if zone, hosts, ok := c.closestDelegation(now, name.Child("www")); ok {
					if zone != name || len(hosts) != 1 {
						t.Errorf("torn delegation for %s: %s %v", name, zone, hosts)
						return
					}
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// getAnswer is lookupAnswer outside any resolution: a plain lookup.
func (c *cache) getAnswer(now time.Time, key cacheKey) (answerEntry, bool) {
	e, cl := c.lookupAnswer(nil, now, key)
	return e, cl == claimHit
}

// getDelegation returns the cached nameserver hosts for zone itself.
func (c *cache) getDelegation(now time.Time, zone dnsmsg.Name) ([]dnsmsg.Name, bool) {
	s := c.shardFor(zone)
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.delegations[zone]
	if !ok || !slot.entry.expires.After(now) {
		return nil, false
	}
	return slot.entry.hosts, true
}

// Len returns the total number of live entries at now, summed across
// shards.
func (c *cache) Len(now time.Time) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.answers {
			if e.expires.After(now) {
				n++
			}
		}
		for _, e := range s.delegations {
			if e.entry.expires.After(now) {
				n++
			}
		}
		for _, e := range s.hostAddrs {
			if e.expires.After(now) {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
