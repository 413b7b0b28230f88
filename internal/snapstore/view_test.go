package snapstore

import (
	"sync"
	"testing"
)

// TestSealedViewConcurrentReads drives parallel readers over one view
// of a quiescent store — the lookup service's read path, whose epochs
// are stores loaded from disk that nothing appends to. Under -race this
// checks that every read entry point is read-only; the readers must all
// see the same answers.
func TestSealedViewConcurrentReads(t *testing.T) {
	s := New()
	s.SetWindow(3)
	for day := 1; day <= 5; day++ {
		w := s.BeginDay(day)
		w.Put(rec(1, "a.com", []string{"192.0.2.1"}, []string{"edge.dps.com"}, nil, true, true))
		if day%2 == 0 {
			w.Put(rec(2, "b.com", []string{"192.0.2.2"}, nil, []string{"ns.b.com"}, true, true))
		}
		w.Put(rec(day+2, "new.com", []string{"198.51.100.1"}, nil, nil, true, false))
		w.Seal()
	}
	v := s.SealedView()
	want := v.Stats()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				day, _ := v.LatestDay()
				records := 0
				for cur := v.Cursor(day); cur.Next(); {
					_ = cur.Record()
					records++
				}
				for pc := v.DiffPairs(day); pc.Next(); {
					_ = pc.Pair().Unchanged()
				}
				if _, ok := v.RecordAt(name("a.com"), day); !ok || records != 2 {
					t.Errorf("day %d: a.com live=%v, %d records, want live and 2", day, ok, records)
					return
				}
				_ = v.History(name("b.com"))
				_ = v.Apexes()
				if got := v.Stats(); got != want {
					t.Errorf("stats %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestHistoryMatchesChain checks History returns the delta chain —
// one entry per stored change, tombstones marked Gone — not one entry
// per day.
func TestHistoryMatchesChain(t *testing.T) {
	s := New()
	putDay(t, s, 1, rec(1, "a.com", []string{"192.0.2.1"}, nil, nil, true, true))
	putDay(t, s, 2, rec(1, "a.com", []string{"192.0.2.1"}, nil, nil, true, true)) // unchanged: no new version
	putDay(t, s, 3, rec(1, "a.com", []string{"192.0.2.5"}, nil, nil, true, true))
	putDay(t, s, 4) // absent: tombstone

	v := s.SealedView()
	hist := v.History(name("a.com"))
	if len(hist) != 3 {
		t.Fatalf("History len = %d, want 3 (two versions + tombstone): %+v", len(hist), hist)
	}
	if hist[0].Day != 1 || hist[0].Gone || hist[0].Rec.Addrs[0] != addr("192.0.2.1") {
		t.Errorf("hist[0] = %+v, want day-1 version", hist[0])
	}
	if hist[1].Day != 3 || hist[1].Gone || hist[1].Rec.Addrs[0] != addr("192.0.2.5") {
		t.Errorf("hist[1] = %+v, want day-3 version", hist[1])
	}
	if hist[2].Day != 4 || !hist[2].Gone {
		t.Errorf("hist[2] = %+v, want day-4 tombstone", hist[2])
	}
	if got := v.History(name("missing.com")); got != nil {
		t.Errorf("History(unknown) = %+v, want nil", got)
	}
}
