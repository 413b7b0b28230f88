package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
)

func TestCounterGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	b.Add(2)
	if got := r.Counter("x").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter holds a value")
	}
	r.Gauge("g").Set(7)
	r.Histogram("h").Observe(9)
	sp := r.Tracer().StartSpan("phase", "label")
	sp.SetItems(3)
	sp.End()
	if ev := r.Tracer().Events(); ev != nil {
		t.Fatalf("nil tracer has events: %v", ev)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot non-empty: %+v", snap)
	}
}

func TestHistogramBuckets(t *testing.T) {
	tests := []struct {
		v    uint64
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 40, 41}}
	for _, tt := range tests {
		if got := bucketOf(tt.v); got != tt.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
	if BucketLow(0) != 0 || BucketLow(1) != 1 || BucketLow(4) != 8 {
		t.Fatalf("BucketLow mapping wrong: %d %d %d", BucketLow(0), BucketLow(1), BucketLow(4))
	}
	// Round-trip: every value lands in a bucket whose low bound admits it.
	for _, v := range []uint64{0, 1, 5, 100, 1 << 20} {
		i := bucketOf(v)
		if low := BucketLow(i); v < low {
			t.Errorf("value %d below its bucket %d low %d", v, i, low)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 1, 6, 6, 6} {
		h.Observe(v)
	}
	h.Observe(0)
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 7 || s.Sum != 20 {
		t.Fatalf("count/sum = %d/%d, want 7/20", s.Count, s.Sum)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 2 || s.Buckets[3] != 3 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 90 observations in bucket 1 (value 1), 9 in bucket 4 (values 8..15),
	// 1 in bucket 7 (values 64..127).
	for i := 0; i < 90; i++ {
		h.Observe(1)
	}
	for i := 0; i < 9; i++ {
		h.Observe(10)
	}
	h.Observe(100)
	s := r.Snapshot().Histograms["lat"]
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want 1 (bucket 1's upper edge)", got)
	}
	if got := s.Quantile(0.9); got != 1 {
		t.Errorf("p90 = %d, want 1 (rank 90 of 100 still lands in bucket 1)", got)
	}
	if got := s.Quantile(0.99); got != 15 {
		t.Errorf("p99 = %d, want 15 (bucket 4's upper edge)", got)
	}
	if got := s.Quantile(1); got != 127 {
		t.Errorf("p100 = %d, want 127 (bucket 7's upper edge)", got)
	}
	// The estimate never underestimates: every observed value is <= its
	// quantile's answer at q=1.
	if s.Quantile(1) < 100 {
		t.Error("max quantile below the largest observation")
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %d, want 0", got)
	}
	// Out-of-range q clamps instead of panicking.
	if s.Quantile(-1) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Error("q outside [0,1] did not clamp")
	}
}

func TestSnapshotEqualAndDeterministic(t *testing.T) {
	build := func(volatileExtra uint64) Snapshot {
		r := NewRegistry()
		r.Counter("stage.items").Add(42)
		r.VolatileCounter("cache.miss").Add(7 + volatileExtra)
		r.VolatileHistogram("backoff").Observe(100 + volatileExtra)
		return r.Snapshot()
	}
	a, b := build(0), build(3)
	if a.Equal(b) {
		t.Fatal("snapshots with different volatile values compare equal")
	}
	if !a.Deterministic().Equal(b.Deterministic()) {
		t.Fatalf("deterministic subsets differ: %v", a.Deterministic().DiffNames(b.Deterministic()))
	}
	if !a.Equal(build(0)) {
		t.Fatal("identical snapshots compare unequal")
	}
	det := a.Deterministic()
	if _, ok := det.Counters["cache.miss"]; ok {
		t.Fatal("volatile counter survived Deterministic()")
	}
	if _, ok := det.Histograms["backoff"]; ok {
		t.Fatal("volatile histogram survived Deterministic()")
	}
	if len(a.DiffNames(b)) == 0 {
		t.Fatal("DiffNames empty for differing snapshots")
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan("collect", "day")
		sp.SetItems(2)
		sp.End()
		sp.End() // double End must not double-record
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
	sums := tr.PhaseSummaries()
	if len(sums) != 1 || sums[0].Spans != 10 || sums[0].Items != 20 {
		t.Fatalf("summaries = %+v (must aggregate past the ring)", sums)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.StartSpan("scan", "")
				sp.AddItems(1)
				sp.End()
			}
		}()
	}
	wg.Wait()
	sums := tr.PhaseSummaries()
	if len(sums) != 1 || sums[0].Spans != 400 || sums[0].Items != 400 {
		t.Fatalf("summaries = %+v", sums)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(uint64(i))
				r.Gauge("g").v.Add(1)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["shared"] != 8000 {
		t.Fatalf("counter = %d, want 8000", snap.Counters["shared"])
	}
	if snap.Histograms["h"].Count != 8000 {
		t.Fatalf("histogram count = %d, want 8000", snap.Histograms["h"].Count)
	}
	if snap.Gauges["g"] != 8000 {
		t.Fatalf("gauge = %d, want 8000", snap.Gauges["g"])
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("collect.domains").Add(12)
	r.VolatileCounter("dns.cache.miss").Add(3)
	r.Histogram("filter.hidden_per_apex").Observe(2)
	sp := r.Tracer().StartSpan("collect", "day 0")
	sp.SetItems(12)
	sp.End()

	raw, err := json.Marshal(r.Dump())
	if err != nil {
		t.Fatal(err)
	}
	var back Dump
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Snapshot.Counters["collect.domains"] != 12 {
		t.Fatalf("round-trip counter = %d", back.Snapshot.Counters["collect.domains"])
	}
	if !back.Snapshot.Volatile["dns.cache.miss"] {
		t.Fatal("volatility mark lost in round trip")
	}
	if len(back.Phases) != 1 || back.Phases[0].Phase != "collect" || back.Phases[0].Items != 12 {
		t.Fatalf("phases = %+v", back.Phases)
	}
}

// Quantile estimates the q-th quantile (clamped to [0, 1]) from the
// bucket counts. It returns the upper edge of the bucket the quantile
// rank lands in — a figure that never underestimates the true value,
// exact up to the power-of-two bucket width. A histogram with no
// observations answers 0.
func (h HistogramSnapshot) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank == 0 {
		rank = 1
	}
	idxs := make([]int, 0, len(h.Buckets))
	for i := range h.Buckets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	var cum uint64
	for _, i := range idxs {
		cum += h.Buckets[i]
		if cum >= rank {
			if i == 0 {
				return 0
			}
			return BucketLow(i+1) - 1
		}
	}
	// Count exceeded the bucket total (inconsistent snapshot); answer the
	// largest edge rather than panic.
	return BucketLow(idxs[len(idxs)-1]+1) - 1
}
