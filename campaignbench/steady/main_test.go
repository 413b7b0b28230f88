package main

import "testing"

// The expected values are Python's statistics.quantiles(values, n=4)
// and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values      []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, med, q3 := quartiles(c.values)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.values, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
