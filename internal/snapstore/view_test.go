package snapstore

import (
	"reflect"
	"sync"
	"testing"
)

// viewSnapshot materializes a view's latest day as a comparable value.
func viewSnapshot(t *testing.T, v *View) map[string][]string {
	t.Helper()
	day, ok := v.LatestDay()
	if !ok {
		t.Fatal("view has no days")
	}
	out := make(map[string][]string)
	for cur := v.Cursor(day); cur.Next(); {
		r := cur.Record()
		var addrs []string
		for _, a := range r.Addrs {
			addrs = append(addrs, a.String())
		}
		out[string(cur.Apex())] = addrs
	}
	return out
}

// TestSealedViewSurvivesAppends pins the View contract the lookup
// service depends on: a view taken after Seal keeps answering for its
// sealed days — same records, same stats — no matter how many days the
// owning store appends, tombstones, or evicts afterwards.
func TestSealedViewSurvivesAppends(t *testing.T) {
	s := New()
	s.SetWindow(2)
	putDay(t, s, 1,
		rec(1, "a.com", []string{"192.0.2.1"}, nil, []string{"ns.a.com"}, true, true),
		rec(2, "b.com", []string{"192.0.2.2"}, nil, nil, true, false),
	)
	putDay(t, s, 2,
		rec(1, "a.com", []string{"192.0.2.9"}, nil, []string{"ns.a.com"}, true, true),
		rec(2, "b.com", []string{"192.0.2.2"}, nil, nil, true, false),
	)

	v := s.SealedView()
	want := viewSnapshot(t, v)
	wantStats := v.Stats()
	wantHist := v.History(name("a.com"))

	// Keep mutating the store: new apexes (grows metas/chains/byApex),
	// changed records (appends to shared chains), a tombstone for b.com,
	// and enough days that the window evicts everything the view holds.
	for day := 3; day <= 8; day++ {
		putDay(t, s, day,
			rec(1, "a.com", []string{"203.0.113.7"}, nil, nil, true, true),
			rec(3, "c.com", []string{"192.0.2.3"}, nil, nil, true, true),
		)
	}

	if got := viewSnapshot(t, v); !reflect.DeepEqual(got, want) {
		t.Fatalf("view drifted after writer appends:\n got %v\nwant %v", got, want)
	}
	if got := v.Stats(); got != wantStats {
		t.Fatalf("view stats drifted: %+v != %+v", got, wantStats)
	}
	if got := v.History(name("a.com")); !reflect.DeepEqual(got, wantHist) {
		t.Fatalf("view history drifted:\n got %+v\nwant %+v", got, wantHist)
	}
	if v.Contains(name("c.com")) {
		t.Fatal("view sees an apex first Put after it was taken")
	}
	if d, _ := v.LatestDay(); d != 2 {
		t.Fatalf("view LatestDay = %d, want 2", d)
	}
	if d, _ := s.LatestDay(); d != 8 {
		t.Fatalf("store LatestDay = %d, want 8", d)
	}
}

// TestSealedViewConcurrentReads drives readers over a sealed view while
// the owning store appends days — the exact writer/reader overlap a live
// lookup service produces. Run under -race this is the proof the
// structural copy shares nothing mutable.
func TestSealedViewConcurrentReads(t *testing.T) {
	s := New()
	s.SetWindow(3)
	for day := 1; day <= 3; day++ {
		putDay(t, s, day,
			rec(1, "a.com", []string{"192.0.2.1"}, []string{"edge.dps.com"}, nil, true, true),
			rec(2, "b.com", []string{"192.0.2.2"}, nil, []string{"ns.b.com"}, true, true),
		)
	}
	v := s.SealedView()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				day, _ := v.LatestDay()
				for cur := v.Cursor(day); cur.Next(); {
					_ = cur.Record()
				}
				for pc := v.DiffPairs(day); pc.Next(); {
					_ = pc.Pair().Unchanged()
				}
				_, _ = v.RecordAt(name("a.com"), day)
				_ = v.History(name("b.com"))
				_ = v.Apexes()
				_ = v.Stats()
			}
		}()
	}

	for day := 4; day <= 20; day++ {
		w := s.BeginDay(day)
		w.Put(rec(1, "a.com", []string{"203.0.113.1"}, nil, nil, true, true))
		if day%2 == 0 {
			w.Put(rec(2, "b.com", []string{"192.0.2.2"}, nil, []string{"ns.b.com"}, true, true))
		}
		w.Put(rec(day, "new.com", []string{"198.51.100.1"}, nil, nil, true, false))
		w.Seal()
	}
	close(stop)
	wg.Wait()

	if d, _ := v.LatestDay(); d != 3 {
		t.Fatalf("view LatestDay = %d, want 3", d)
	}
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
