package snapstore

import (
	"fmt"
	"reflect"
	"testing"
)

// restored round-trips a store through ExportState/FromState.
func restored(t *testing.T, s *Store) *Store {
	t.Helper()
	s2, err := FromState(s.ExportState())
	if err != nil {
		t.Fatalf("FromState: %v", err)
	}
	return s2
}

func TestStateRoundTripExact(t *testing.T) {
	s := New()
	s.SetWindow(2)
	putDay(t, s, 0,
		rec(1, "alpha.com", []string{"10.0.0.1"}, []string{"edge.cdn.net"}, []string{"ns1.alpha.com"}, true, true),
		rec(2, "beta.com", []string{"10.0.0.2"}, nil, nil, true, false),
	)
	putDay(t, s, 1,
		rec(1, "alpha.com", []string{"10.0.0.9"}, []string{"edge.cdn.net"}, []string{"ns1.alpha.com"}, true, true),
	) // beta tombstoned
	putDay(t, s, 3,
		rec(1, "alpha.com", []string{"10.0.0.9"}, []string{"edge.cdn.net"}, []string{"ns1.alpha.com"}, true, true),
		rec(2, "beta.com", []string{"10.0.0.2"}, nil, nil, true, false),
	) // day 0 evicted

	s2 := restored(t, s)
	if s.Stats() != s2.Stats() {
		t.Fatalf("stats: %+v != %+v", s.Stats(), s2.Stats())
	}
	if !reflect.DeepEqual(s.Days(), s2.Days()) {
		t.Fatalf("days: %v != %v", s.Days(), s2.Days())
	}
	for _, day := range s.Days() {
		if !reflect.DeepEqual(dayRecords(s, day), dayRecords(s2, day)) {
			t.Fatalf("day %d records differ", day)
		}
	}
	// The restored store keeps appending: diff against the pre-restore
	// tail works and interning resumes without duplicating names.
	before := s2.Stats().InternedNames
	putDay(t, s2, 4,
		rec(1, "alpha.com", []string{"10.0.0.9"}, []string{"edge.cdn.net"}, []string{"ns1.alpha.com"}, true, true),
		rec(2, "beta.com", []string{"10.0.0.3"}, nil, nil, true, false),
	)
	if got := s2.Stats().InternedNames; got != before {
		t.Fatalf("restore re-interned: %d -> %d", before, got)
	}
	changed := 0
	for pc := s2.DiffPairs(4); pc.Next(); {
		if !pc.Pair().Unchanged() {
			changed++
		}
	}
	if changed != 1 {
		t.Fatalf("diff across restore: %d changed pairs, want 1 (beta)", changed)
	}
}

func TestRestoredEvictedDaysUnreplayable(t *testing.T) {
	s := New()
	s.SetWindow(2)
	for day := 0; day < 5; day++ {
		putDay(t, s, day, rec(1, "alpha.com", []string{fmt.Sprintf("10.0.0.%d", day+1)}, nil, nil, true, true))
	}
	s2 := restored(t, s)
	if got := s2.Days(); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("restored days = %v, want [3 4]", got)
	}
	if s2.Stats().EvictedDays != 3 {
		t.Fatalf("restored evicted = %d, want 3", s2.Stats().EvictedDays)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("replaying an evicted day after restore did not panic")
		}
	}()
	s2.Cursor(1)
}

func TestRestoreThenGrowWindow(t *testing.T) {
	s := New()
	s.SetWindow(2)
	for day := 0; day < 6; day++ {
		putDay(t, s, day, rec(1, "alpha.com", []string{fmt.Sprintf("10.0.0.%d", day+1)}, nil, nil, true, true))
	}
	s2 := restored(t, s)
	// Growing the window cannot resurrect evicted days, but from here on
	// the wider retention holds.
	s2.SetWindow(4)
	for day := 6; day < 9; day++ {
		putDay(t, s2, day, rec(1, "alpha.com", []string{fmt.Sprintf("10.0.1.%d", day)}, nil, nil, true, true))
	}
	if got := s2.Days(); !reflect.DeepEqual(got, []int{5, 6, 7, 8}) {
		t.Fatalf("grown-window days = %v, want [5 6 7 8]", got)
	}
	if r, ok := s2.SealedView().RecordAt(name("alpha.com"), 5); !ok || r.Addrs[0] != addr("10.0.0.6") {
		t.Fatalf("pre-restore day 5 after grow: %v %v", r, ok)
	}
}

func TestRestoreThenShrinkWindow(t *testing.T) {
	s := New()
	for day := 0; day < 5; day++ {
		putDay(t, s, day, rec(1, "alpha.com", []string{fmt.Sprintf("10.0.0.%d", day+1)}, nil, nil, true, true))
	}
	s2 := restored(t, s)
	s2.SetWindow(2)
	// Shrinking applies at the next Seal, like on a live store.
	putDay(t, s2, 5, rec(1, "alpha.com", []string{"10.0.1.5"}, nil, nil, true, true))
	if got := s2.Days(); !reflect.DeepEqual(got, []int{4, 5}) {
		t.Fatalf("shrunk-window days = %v, want [4 5]", got)
	}
	if s2.Stats().EvictedDays != 4 {
		t.Fatalf("shrunk evicted = %d, want 4", s2.Stats().EvictedDays)
	}
}

func TestFromStateRejectsInconsistency(t *testing.T) {
	base := func() State {
		s := New()
		putDay(t, s, 0, rec(1, "alpha.com", []string{"10.0.0.1"}, []string{"edge.cdn.net"}, nil, true, true))
		return s.ExportState()
	}
	for label, mutate := range map[string]func(*State){
		"chain/apex mismatch": func(st *State) { st.Chains = st.Chains[:0] },
		"negative counter":    func(st *State) { st.Versions = -1 },
		"days not increasing": func(st *State) { st.Days = []int{3, 3} },
		"duplicate apex": func(st *State) {
			st.Apexes = append(st.Apexes, st.Apexes[0])
			st.Chains = append(st.Chains, st.Chains[0])
		},
		"duplicate name": func(st *State) { st.Names = append(st.Names, st.Names[0]) },
		"name id out of range": func(st *State) {
			st.Chains[0][0].Rec.CNAMEs = []uint32{99}
		},
		"chain days not increasing": func(st *State) {
			st.Chains[0] = append(st.Chains[0], st.Chains[0][0])
		},
		"rank out of range": func(st *State) { st.Apexes[0].Rank = -5 },
	} {
		st := base()
		mutate(&st)
		if _, err := FromState(st); err == nil {
			t.Errorf("%s: FromState accepted inconsistent state", label)
		}
	}
}
