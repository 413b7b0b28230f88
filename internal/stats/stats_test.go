package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.2},
		{2, 0.6},
		{2.5, 0.6},
		{3, 0.8},
		{10, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 || c.Len() != 0 {
		t.Fatal("empty CDF misbehaves")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Fatal("empty Quantile should be NaN")
	}
	if c.Points() != nil {
		t.Fatal("empty Points should be nil")
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	tests := []struct {
		q, want float64
	}{
		{0.25, 1},
		{0.5, 2},
		{0.75, 3},
		{1.0, 4},
		{0, 1},
		{2, 4},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 1, 2})
	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	if pts[0] != (Point{X: 1, P: 2.0 / 3}) || pts[1] != (Point{X: 2, P: 1}) {
		t.Fatalf("points = %v", pts)
	}
}

// Properties: CDF is monotone non-decreasing and At(max) == 1.
func TestCDFQuickProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8) bool {
		count := int(n)%50 + 1
		samples := make([]float64, count)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 10
		}
		c := NewCDF(samples)
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		prev := 0.0
		for _, x := range sorted {
			p := c.At(x)
			if p < prev {
				return false
			}
			prev = p
		}
		return c.At(sorted[len(sorted)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile and At are approximately inverse.
func TestCDFQuantileAtInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(n uint8, qRaw uint8) bool {
		count := int(n)%40 + 1
		samples := make([]float64, count)
		for i := range samples {
			samples[i] = rng.Float64() * 100
		}
		c := NewCDF(samples)
		q := (float64(qRaw) + 1) / 257 // (0,1)
		v := c.Quantile(q)
		return c.At(v) >= q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestPercentAndRatio(t *testing.T) {
	if got := Percent(1, 4); got != "25.0%" {
		t.Fatalf("Percent = %q", got)
	}
	if got := Percent(0, 0); got != "0.0%" {
		t.Fatalf("Percent(0,0) = %q", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 5)
	for _, v := range []int{0, 1, 1, 3, 7, -2} {
		h.Add(v)
	}
	total := 0
	for v := h.Min; v <= h.Max; v++ {
		total += h.Count(v)
	}
	if total != 6 {
		t.Fatalf("total = %d, want every sample counted once", total)
	}
	if h.Count(1) != 2 {
		t.Fatalf("Count(1) = %d", h.Count(1))
	}
	if h.Count(5) != 1 { // 7 clamped
		t.Fatalf("Count(5) = %d", h.Count(5))
	}
	if h.Count(0) != 2 { // 0 and clamped -2
		t.Fatalf("Count(0) = %d", h.Count(0))
	}
	if h.Count(99) != 0 {
		t.Fatal("out-of-range Count should be 0")
	}
	if !strings.Contains(h.String(), "#") {
		t.Fatal("String() missing bars")
	}
}

func TestHistogramPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram(5, 0) did not panic")
		}
	}()
	NewHistogram(5, 0)
}

// Quantile returns the smallest sample v with At(v) >= q, clamping q to
// (0,1]. An empty CDF returns NaN.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q > 1 {
		q = 1
	}
	idx := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// Count returns the number of samples in bucket v.
func (h *Histogram) Count(v int) int {
	if v < h.Min || v > h.Max {
		return 0
	}
	return h.counts[v-h.Min]
}

// Mean returns the arithmetic mean of samples, or NaN when empty.
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}
