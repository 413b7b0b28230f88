package obs

import (
	"fmt"
	"sort"
)

// Snapshot is a point-in-time copy of a registry's metrics, held in
// plain values.
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

func emptySnapshot() Snapshot {
	return Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Volatile:   map[string]bool{},
	}
}

func (h HistogramSnapshot) clone() HistogramSnapshot {
	out := HistogramSnapshot{Count: h.Count, Sum: h.Sum, Buckets: map[int]uint64{}}
	for i, n := range h.Buckets {
		out.Buckets[i] = n
	}
	return out
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
