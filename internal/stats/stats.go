// Package stats provides the small statistical toolkit the measurement
// pipeline reports with: empirical CDFs (Fig. 5), histograms, and summary
// helpers.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied; input order is preserved for
// the caller).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x), the fraction of samples at or below x. An empty
// CDF returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Points renders the CDF as (x, p) steps suitable for plotting: one point
// per distinct sample value.
func (c *CDF) Points() []Point {
	var out []Point
	n := float64(len(c.sorted))
	for i := 0; i < len(c.sorted); i++ {
		if i+1 < len(c.sorted) && c.sorted[i+1] == c.sorted[i] {
			continue
		}
		out = append(out, Point{X: c.sorted[i], P: float64(i+1) / n})
	}
	return out
}

// Point is one step of an empirical CDF.
type Point struct {
	X float64
	P float64
}

// Percent formats part/whole as "12.3%", rendering 0/0 as "0.0%".
func Percent(part, whole int) string {
	if whole == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(whole))
}

// Histogram counts occurrences of integer-valued samples in unit buckets
// between Min and Max inclusive, with outliers clamped to the edges.
type Histogram struct {
	Min, Max int
	counts   []int
}

// NewHistogram creates a histogram over [min, max]. It panics when
// min > max.
func NewHistogram(min, max int) *Histogram {
	if min > max {
		panic(fmt.Sprintf("stats: NewHistogram(%d, %d)", min, max))
	}
	return &Histogram{Min: min, Max: max, counts: make([]int, max-min+1)}
}

// Add records one sample.
func (h *Histogram) Add(v int) {
	if v < h.Min {
		v = h.Min
	}
	if v > h.Max {
		v = h.Max
	}
	h.counts[v-h.Min]++
}

// String renders a compact text bar chart.
func (h *Histogram) String() string {
	var b strings.Builder
	maxCount := 0
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.counts {
		bar := 0
		if maxCount > 0 {
			bar = c * 40 / maxCount
		}
		fmt.Fprintf(&b, "%6d | %-40s %d\n", h.Min+i, strings.Repeat("#", bar), c)
	}
	return b.String()
}
