package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before the
// benchmark reports it.
const minTail = 10

// latencies is a set of operation latencies that percentiles are read
// from.
type latencies interface {
	count() int
	// rank returns the value of the rank-th smallest sample (1-based).
	rank(r int) time.Duration
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) in
// milliseconds and whether at least minTail samples lie beyond it.
func percentile(l latencies, p float64) (float64, bool) {
	n := l.count()
	if n == 0 {
		return 0, false
	}
	r := max(1, int(math.Ceil(p*float64(n))))
	return float64(l.rank(r)) / float64(time.Millisecond), n-r >= minTail
}

// sortedLatencies holds every sample, sorted; the campaigns record a few
// hundred operations per run.
type sortedLatencies []time.Duration

func sortLatencies(lat []time.Duration) sortedLatencies {
	s := append(sortedLatencies(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func (s sortedLatencies) count() int               { return len(s) }
func (s sortedLatencies) rank(r int) time.Duration { return s[r-1] }

// subBits sets the histogram's resolution: each power-of-two range of
// values is split into 1<<subBits buckets, so a value read back is
// within 0.4% of the sample.
const subBits = 7

// histogram is a log-linear latency histogram. The lookup service
// completes millions of requests per run; a histogram records them in
// constant memory, so the benchmark's bookkeeping does not show up in
// the run's peak RSS.
type histogram struct {
	counts [64 << subBits]uint64
	n      int
}

func bucketOf(ns uint64) int {
	if ns < 1<<(subBits+1) {
		return int(ns)
	}
	shift := bits.Len64(ns) - subBits - 1
	return (shift+1)<<subBits + int(ns>>shift) - 1<<subBits
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) time.Duration {
	if i < 1<<(subBits+1) {
		return time.Duration(i)
	}
	shift := i>>subBits - 1
	low := uint64(i&(1<<subBits-1)+1<<subBits) << shift
	return time.Duration(low + (uint64(1)<<shift)/2)
}

func (h *histogram) record(d time.Duration) {
	h.counts[bucketOf(uint64(max(d, 0)))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *histogram) count() int { return h.n }

func (h *histogram) rank(r int) time.Duration {
	seen := 0
	for i, c := range h.counts {
		seen += int(c)
		if seen >= r {
			return bucketMid(i)
		}
	}
	return 0
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// opRun is what one measured phase produced. Times are net of CPU steal
// (see stealMeter); gross keeps the wall-clock latencies for the log
// where they differ.
type opRun struct {
	lat   latencies
	gross latencies
	ops   int // operations completed
	// planned is how many operations a campaign phase set out to do; it
	// did fewer only when its time limit passed.
	planned int
	items   int // work items they covered
	// busy is the phase's wall time net of steal; stolen is the steal
	// taken out of it.
	busy, stolen time.Duration
	// rates are the throughput samples the run reports the median of:
	// per batch of operations for the campaigns, per wall-clock window
	// for the lookup service.
	rates []float64
	// trend compares the first and last tenth of a campaign's operations,
	// to show whether an operation's cost grows over the run.
	trend string
}

func meanMs(lat []time.Duration) float64 {
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	return float64(sum) / float64(len(lat)) / float64(time.Millisecond)
}

// meanRate is items per second of busy time; the traced run compares it
// between its two phases.
func (r *opRun) meanRate() float64 {
	if r.busy <= 0 {
		return 0
	}
	return float64(r.items) / r.busy.Seconds()
}

// batchRates splits a campaign's operations into consecutive batches of
// size ops and returns each batch's items per second.
func batchRates(lat []time.Duration, items []int, size int) []float64 {
	var out []float64
	for lo := 0; lo+size <= len(lat); lo += size {
		var d time.Duration
		n := 0
		for i := lo; i < lo+size; i++ {
			d += lat[i]
			n += items[i]
		}
		if d > 0 {
			out = append(out, float64(n)/d.Seconds())
		}
	}
	return out
}

// metric is one reported value; n is the sample count behind it (0 for a
// single measurement).
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

func (m metric) String() string {
	s := fmt.Sprintf("%-30s %14.4f %-6s", m.name, m.value, m.unit)
	if m.n > 0 {
		s += fmt.Sprintf(" n=%d", m.n)
	}
	if m.note != "" {
		s += "  " + m.note
	}
	return s
}
