package alexa

import (
	"math/rand"
	"strings"
	"testing"
)

func TestTopListUniqueAndRanked(t *testing.T) {
	list := TopList(5000, rand.New(rand.NewSource(1)))
	if len(list) != 5000 {
		t.Fatalf("len = %d", len(list))
	}
	seen := make(map[string]bool, len(list))
	for i, d := range list {
		if d.Rank != i+1 {
			t.Fatalf("rank at %d = %d", i, d.Rank)
		}
		if seen[string(d.Apex)] {
			t.Fatalf("duplicate apex %s", d.Apex)
		}
		seen[string(d.Apex)] = true
	}
}

func TestTopListDeterministic(t *testing.T) {
	a := TopList(500, rand.New(rand.NewSource(42)))
	b := TopList(500, rand.New(rand.NewSource(42)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	c := TopList(500, rand.New(rand.NewSource(43)))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical lists")
	}
}

func TestTopListValidTLDs(t *testing.T) {
	valid := make(map[string]bool)
	for _, tld := range TLDs() {
		valid[tld] = true
	}
	for _, d := range TopList(1000, rand.New(rand.NewSource(7))) {
		labels := d.Apex.Labels()
		if len(labels) != 2 {
			t.Fatalf("apex %s has %d labels", d.Apex, len(labels))
		}
		if !valid[labels[1]] {
			t.Fatalf("apex %s has unknown TLD", d.Apex)
		}
	}
}

func TestWWW(t *testing.T) {
	d := Domain{Rank: 1, Apex: "zelvano.com"}
	if got := d.WWW(); got != "www.zelvano.com" {
		t.Fatalf("WWW = %s", got)
	}
}

func TestComDominates(t *testing.T) {
	list := TopList(5000, rand.New(rand.NewSource(9)))
	com := 0
	for _, d := range list {
		if strings.HasSuffix(string(d.Apex), ".com") {
			com++
		}
	}
	if ratio := float64(com) / float64(len(list)); ratio < 0.5 || ratio > 0.7 {
		t.Fatalf(".com ratio = %v, want ~0.6", ratio)
	}
}

func TestTopListZero(t *testing.T) {
	if got := TopList(0, rand.New(rand.NewSource(1))); len(got) != 0 {
		t.Fatalf("TopList(0) = %v", got)
	}
}

func TestTopListNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TopList(-1) did not panic")
		}
	}()
	TopList(-1, rand.New(rand.NewSource(1)))
}
