package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Snapshot is a point-in-time copy of a registry's metrics. Snapshots are
// plain values: Diff makes pass-scoped accounting (per-week deltas)
// explicit, mirroring how dnsresolver.QueryStats composes with Add.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Volatile names metrics whose totals are scheduling-sensitive; they
	// carry real information but are excluded from serial≡parallel
	// equality checks (see Deterministic).
	Volatile map[string]bool `json:"volatile,omitempty"`
}

// HistogramSnapshot is one histogram's state, buckets stored sparsely by
// index (see BucketLow for the index → value-range mapping).
type HistogramSnapshot struct {
	Count   uint64         `json:"count"`
	Sum     uint64         `json:"sum"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
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

func emptySnapshot() Snapshot {
	return Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Volatile:   map[string]bool{},
	}
}

// Diff returns s − prev field-wise (saturating at zero), for per-phase
// deltas between two snapshots of the same registry. Gauges subtract
// signed. Volatility marks are unioned.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := emptySnapshot()
	for name, v := range s.Counters {
		p := prev.Counters[name]
		if p > v {
			p = v
		}
		out.Counters[name] = v - p
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v - prev.Gauges[name]
	}
	for name, h := range s.Histograms {
		out.Histograms[name] = h.diff(prev.Histograms[name])
	}
	s.copyVolatile(out.Volatile)
	prev.copyVolatile(out.Volatile)
	return out
}

func (h HistogramSnapshot) diff(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Buckets: map[int]uint64{}}
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	out.Count = sub(h.Count, prev.Count)
	out.Sum = sub(h.Sum, prev.Sum)
	for i, n := range h.Buckets {
		if d := sub(n, prev.Buckets[i]); d > 0 {
			out.Buckets[i] = d
		}
	}
	return out
}

func (h HistogramSnapshot) clone() HistogramSnapshot {
	out := HistogramSnapshot{Count: h.Count, Sum: h.Sum, Buckets: map[int]uint64{}}
	for i, n := range h.Buckets {
		out.Buckets[i] = n
	}
	return out
}

func (s Snapshot) copyVolatile(dst map[string]bool) {
	for name := range s.Volatile {
		dst[name] = true
	}
}

// Deterministic returns the snapshot with every volatile metric removed —
// the subset whose totals must be identical between serial and parallel
// runs of the same seeded campaign.
func (s Snapshot) Deterministic() Snapshot {
	out := emptySnapshot()
	for name, v := range s.Counters {
		if !s.Volatile[name] {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		if !s.Volatile[name] {
			out.Histograms[name] = h.clone()
		}
	}
	return out
}

// Equal reports whether two snapshots hold the same metric values
// (volatility marks are compared too; bucket maps compare sparsely).
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Counters) != len(o.Counters) || len(s.Gauges) != len(o.Gauges) ||
		len(s.Histograms) != len(o.Histograms) || len(s.Volatile) != len(o.Volatile) {
		return false
	}
	for name, v := range s.Counters {
		ov, ok := o.Counters[name]
		if !ok || ov != v {
			return false
		}
	}
	for name, v := range s.Gauges {
		ov, ok := o.Gauges[name]
		if !ok || ov != v {
			return false
		}
	}
	for name, h := range s.Histograms {
		oh, ok := o.Histograms[name]
		if !ok || !h.equal(oh) {
			return false
		}
	}
	for name := range s.Volatile {
		if !o.Volatile[name] {
			return false
		}
	}
	return true
}

func (h HistogramSnapshot) equal(o HistogramSnapshot) bool {
	if h.Count != o.Count || h.Sum != o.Sum || len(h.Buckets) != len(o.Buckets) {
		return false
	}
	for i, n := range h.Buckets {
		if o.Buckets[i] != n {
			return false
		}
	}
	return true
}

// DiffNames returns a sorted list of human-readable differences between
// two snapshots — test-failure output for the equality checks.
func (s Snapshot) DiffNames(o Snapshot) []string {
	var out []string
	seen := map[string]bool{}
	for name, v := range s.Counters {
		seen[name] = true
		if ov := o.Counters[name]; ov != v {
			out = append(out, fmt.Sprintf("counter %s: %d vs %d", name, v, ov))
		}
	}
	for name, ov := range o.Counters {
		if !seen[name] {
			out = append(out, fmt.Sprintf("counter %s: absent vs %d", name, ov))
		}
	}
	for name, h := range s.Histograms {
		if oh, ok := o.Histograms[name]; !ok || !h.equal(oh) {
			out = append(out, fmt.Sprintf("histogram %s: count %d/sum %d vs count %d/sum %d",
				name, h.Count, h.Sum, oh.Count, oh.Sum))
		}
	}
	for name, v := range s.Gauges {
		if ov := o.Gauges[name]; ov != v {
			out = append(out, fmt.Sprintf("gauge %s: %d vs %d", name, v, ov))
		}
	}
	sort.Strings(out)
	return out
}

// CounterNames returns the sorted counter names, optionally restricted to
// a dot-separated prefix (e.g. "collect").
func (s Snapshot) CounterNames(prefix string) []string {
	var out []string
	for name := range s.Counters {
		if prefix == "" || name == prefix || strings.HasPrefix(name, prefix+".") {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
