package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestHistogramRankWithinResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := &histogram{}
	var all []time.Duration
	for i := 0; i < 20000; i++ {
		d := time.Duration(rng.ExpFloat64() * float64(20*time.Microsecond))
		h.record(d)
		all = append(all, d)
	}
	exact := sortLatencies(all)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		got, _ := percentile(h, p)
		want, _ := percentile(exact, p)
		if diff := (got - want) / want; diff > 0.004 || diff < -0.004 {
			t.Errorf("p%.0f: histogram %.6f ms, exact %.6f ms", p*100, got, want)
		}
	}
}

func TestBucketsAreMonotonic(t *testing.T) {
	prev := -1
	for ns := uint64(0); ns < 1<<20; ns++ {
		b := bucketOf(ns)
		if b < prev || b > prev+1 {
			t.Fatalf("bucketOf(%d) = %d after %d", ns, b, prev)
		}
		if mid := uint64(bucketMid(b)); b != bucketOf(mid) {
			t.Fatalf("bucketMid(%d) = %d lies in bucket %d", b, mid, bucketOf(mid))
		}
		prev = b
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	s := sortLatencies(lat)
	if v, ok := percentile(s, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 ms = %v (ok %v), want 90 with 10 beyond", v, ok)
	}
	if _, ok := percentile(s, 0.99); ok {
		t.Error("p99 of 100 samples has one beyond it, want not ok")
	}
}

func TestBatchRates(t *testing.T) {
	lat := []time.Duration{time.Second, time.Second, 2 * time.Second, 2 * time.Second, time.Second}
	items := []int{10, 10, 10, 10, 10}
	got := batchRates(lat, items, 2) // the fifth operation fills no batch
	want := []float64{10, 5}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("batchRates = %v, want %v", got, want)
	}
}
