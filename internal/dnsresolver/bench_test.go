package dnsresolver

import (
	"testing"

	"rrdps/internal/dnsmsg"
)

func BenchmarkResolveColdCache(b *testing.B) {
	f := newFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.resolver.PurgeCache()
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveWarmCache(b *testing.B) {
	f := newFixture(b)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExchangeDirect(b *testing.B) {
	f := newFixture(b)
	client := f.resolver.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Exchange(f.authAddr, "www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveCrossZoneCNAME(b *testing.B) {
	f := newFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.resolver.PurgeCache()
		if _, err := f.resolver.Resolve("cdn-www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// dropAnswer deletes just (name, qtype)'s answer entry, leaving
// delegation and host-address entries warm: an answer miss under warm
// zone cuts, as when a new name in a known zone is first resolved.
func dropAnswer(r *Resolver, name dnsmsg.Name, qtype dnsmsg.Type) {
	s := r.cache.shardFor(name)
	s.mu.Lock()
	delete(s.answers, cacheKey{name: name, qtype: qtype})
	s.mu.Unlock()
}

// BenchmarkResolveCached is the hot path the CI bench gate pins at zero
// allocations: a resolve served entirely from the answer cache.
func BenchmarkResolveCached(b *testing.B) {
	f := newFixture(b)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResolveUncached is the answer-cache-miss path with warm
// delegations: one authoritative exchange plus the re-cache of its
// answer, the cost of a new name in an already-walked zone.
func BenchmarkResolveUncached(b *testing.B) {
	f := newFixture(b)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dropAnswer(f.resolver, "www.example.com", dnsmsg.TypeA)
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

// TestResolveAllocBudget pins the allocs/op budget the CI bench gate
// enforces: the cached path allocates nothing, the uncached path at most
// 4 per op. A regression here is a correctness failure, not a perf note —
// the zero-alloc hot path is this PR's contract.
func TestResolveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the budget is enforced by the non-race run")
	}
	f := newFixture(t)
	if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
		t.Fatal(err)
	}
	cached := testing.AllocsPerRun(200, func() {
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			t.Fatal(err)
		}
	})
	if cached != 0 {
		t.Errorf("cached resolve: %.1f allocs/op, want 0", cached)
	}
	uncached := testing.AllocsPerRun(200, func() {
		dropAnswer(f.resolver, "www.example.com", dnsmsg.TypeA)
		if _, err := f.resolver.Resolve("www.example.com", dnsmsg.TypeA); err != nil {
			t.Fatal(err)
		}
	})
	if uncached > 4 {
		t.Errorf("uncached resolve: %.1f allocs/op, want <= 4", uncached)
	}
}
