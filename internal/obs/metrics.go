package obs

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. All methods are safe
// for concurrent use and no-op on a nil receiver.
type Counter struct {
	v        atomic.Uint64
	volatile bool
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-written signed value (population sizes, configuration
// knobs). Safe for concurrent use; no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log-scale buckets: bucket 0 holds zeros
// and bucket i (1..64) holds values in [2^(i-1), 2^i).
const histBuckets = 65

// Histogram accumulates a value distribution in fixed log2 buckets. The
// bucket layout never changes, so histograms from different runs or
// components compare and diff bucket by bucket, and totals are
// order-independent — the property the serial≡parallel equality test
// relies on. Safe for concurrent use; no-ops on a nil receiver.
type Histogram struct {
	volatile bool
	count    atomic.Uint64
	sum      atomic.Uint64
	buckets  [histBuckets]atomic.Uint64
}

// bucketOf maps a value to its bucket index: bits.Len64(v), so 0→0, 1→1,
// 2..3→2, 4..7→3, and so on.
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketLow returns the smallest value the bucket at index i admits.
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// restore overwrites the histogram's state from a snapshot. Bucket
// indexes outside the fixed layout are ignored (a decoded snapshot is
// untrusted input; Registry.Restore owns rejecting it wholesale).
func (h *Histogram) restore(s HistogramSnapshot) {
	h.count.Store(s.Count)
	h.sum.Store(s.Sum)
	for i := range h.buckets {
		h.buckets[i].Store(s.Buckets[i])
	}
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: map[int]uint64{},
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets[i] = n
		}
	}
	return s
}
