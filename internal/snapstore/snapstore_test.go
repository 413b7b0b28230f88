package snapstore

import (
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/dnsmsg"
)

func name(s string) dnsmsg.Name { return dnsmsg.MustParseName(s) }

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func rec(rank int, apex string, addrs []string, cnames, nsHosts []string, resolveOK, nsOK bool) collect.Record {
	r := collect.Record{
		Domain:    alexa.Domain{Rank: rank, Apex: name(apex)},
		ResolveOK: resolveOK,
		NSOK:      nsOK,
	}
	for _, a := range addrs {
		r.Addrs = append(r.Addrs, addr(a))
	}
	for _, c := range cnames {
		r.CNAMEs = append(r.CNAMEs, name(c))
	}
	for _, h := range nsHosts {
		r.NSHosts = append(r.NSHosts, name(h))
	}
	return r
}

// putDay seals one day built from recs.
func putDay(t *testing.T, s *Store, day int, recs ...collect.Record) {
	t.Helper()
	w := s.BeginDay(day)
	for _, r := range recs {
		w.Put(r)
	}
	w.Seal()
}

// dayRecords drains day's cursor, in rank order.
func dayRecords(s *Store, day int) []collect.Record {
	var out []collect.Record
	for cur := s.Cursor(day); cur.Next(); {
		out = append(out, cur.Record())
	}
	return out
}

// recordAt is a point read through a sealed view; a miss returns the
// zero record.
func recordAt(s *Store, apex string, day int) collect.Record {
	r, _ := s.SealedView().RecordAt(name(apex), day)
	return r
}

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	a := in.Intern(name("a.example.com"))
	b := in.Intern(name("b.example.com"))
	if a == b {
		t.Fatal("distinct names share an ID")
	}
	if got := in.Intern(name("a.example.com")); got != a {
		t.Fatalf("re-intern changed ID: %d != %d", got, a)
	}
	if in.Name(a) != name("a.example.com") || in.Name(b) != name("b.example.com") {
		t.Fatal("Name round trip failed")
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d, want 2", in.Len())
	}
	if _, ok := in.Lookup(name("c.example.com")); ok {
		t.Fatal("Lookup invented an ID")
	}
}

func TestCursorMatchesInput(t *testing.T) {
	s := New()
	r1 := rec(1, "alpha.com", []string{"10.0.0.1"}, []string{"alpha.cdn.net"}, []string{"ns1.alpha.com"}, true, true)
	r2 := rec(2, "beta.com", []string{"10.0.0.2", "10.0.0.3"}, nil, []string{"ns1.beta.com"}, true, true)
	putDay(t, s, 0, r2, r1)

	if got, want := dayRecords(s, 0), []collect.Record{r1, r2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("day 0 round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestDeltaEncodingStoresOnlyChanges(t *testing.T) {
	s := New()
	r1 := rec(1, "alpha.com", []string{"10.0.0.1"}, nil, []string{"ns1.alpha.com"}, true, true)
	r2 := rec(2, "beta.com", []string{"10.0.0.2"}, nil, []string{"ns1.beta.com"}, true, true)
	putDay(t, s, 0, r1, r2)

	// Day 1: only beta changes.
	r2b := rec(2, "beta.com", []string{"10.9.9.9"}, nil, []string{"ns1.beta.com"}, true, true)
	putDay(t, s, 1, r1, r2b)

	st := s.Stats()
	if st.Versions != 3 {
		t.Fatalf("versions = %d, want 3 (two day-0 bases + one beta delta)", st.Versions)
	}
	if got := recordAt(s, "beta.com", 1); !reflect.DeepEqual(got, r2b) {
		t.Fatalf("beta at day 1: %+v", got)
	}
	if got := recordAt(s, "beta.com", 0); !reflect.DeepEqual(got, r2) {
		t.Fatalf("beta at day 0: %+v", got)
	}
	if got := recordAt(s, "alpha.com", 1); !reflect.DeepEqual(got, r1) {
		t.Fatalf("alpha at day 1: %+v", got)
	}
}

func TestTombstones(t *testing.T) {
	s := New()
	r1 := rec(1, "alpha.com", []string{"10.0.0.1"}, nil, nil, true, false)
	r2 := rec(2, "beta.com", []string{"10.0.0.2"}, nil, nil, true, false)
	putDay(t, s, 0, r1, r2)
	putDay(t, s, 1, r1) // beta vanishes

	v := s.SealedView()
	if _, ok := v.RecordAt(name("beta.com"), 1); ok {
		t.Fatal("tombstoned apex still live")
	}
	if _, ok := v.RecordAt(name("beta.com"), 0); !ok {
		t.Fatal("tombstone rewrote history")
	}
	if n := len(dayRecords(s, 1)); n != 1 {
		t.Fatalf("day 1 has %d records, want 1", n)
	}
	if s.Stats().Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", s.Stats().Tombstones)
	}

	// Reappearance on day 2 is a fresh version.
	putDay(t, s, 2, r1, r2)
	if _, ok := s.SealedView().RecordAt(name("beta.com"), 2); !ok {
		t.Fatal("reappeared apex not live")
	}
}

func TestCursorRankOrder(t *testing.T) {
	s := New()
	// Inserted out of rank order on purpose.
	putDay(t, s, 0,
		rec(3, "gamma.com", []string{"10.0.0.3"}, nil, nil, true, true),
		rec(1, "alpha.com", []string{"10.0.0.1"}, nil, nil, true, true),
		rec(2, "beta.com", []string{"10.0.0.2"}, nil, nil, true, true),
	)
	var got []dnsmsg.Name
	for cur := s.Cursor(0); cur.Next(); {
		got = append(got, cur.Apex())
		if cur.Record().Domain.Apex != got[len(got)-1] {
			t.Fatal("cursor record/apex mismatch")
		}
	}
	want := []dnsmsg.Name{name("alpha.com"), name("beta.com"), name("gamma.com")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cursor order %v, want %v", got, want)
	}
	if got := s.SealedView().Apexes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Apexes order %v, want %v", got, want)
	}
	// Top(n) is the head of that order with the ranks, clamped at both ends.
	top := []alexa.Domain{{Rank: 1, Apex: want[0]}, {Rank: 2, Apex: want[1]}, {Rank: 3, Apex: want[2]}}
	for n, want := range map[int][]alexa.Domain{-1: {}, 0: {}, 2: top[:2], 3: top, 9: top} {
		if got := s.SealedView().Top(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("Top(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestDiffPairsStreamsChanges(t *testing.T) {
	s := New()
	r1 := rec(1, "alpha.com", []string{"10.0.0.1"}, nil, nil, true, true)
	r2 := rec(2, "beta.com", []string{"10.0.0.2"}, nil, nil, true, true)
	putDay(t, s, 0, r1, r2)

	// Day 0: every pair is prev-absent.
	n := 0
	for pc := s.DiffPairs(0); pc.Next(); {
		p := pc.Pair()
		if p.PrevOK || !p.CurOK {
			t.Fatalf("day-0 pair %s: PrevOK=%v CurOK=%v", p.Apex, p.PrevOK, p.CurOK)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("day-0 pairs = %d, want 2", n)
	}

	// Day 1: beta changes, gamma appears, alpha unchanged.
	r2b := rec(2, "beta.com", []string{"10.9.9.9"}, nil, nil, true, true)
	r3 := rec(3, "gamma.com", []string{"10.0.0.3"}, nil, nil, true, true)
	putDay(t, s, 1, r1, r2b, r3)

	var apexes []dnsmsg.Name
	unchanged := map[dnsmsg.Name]bool{}
	for pc := s.DiffPairs(1); pc.Next(); {
		p := pc.Pair()
		apexes = append(apexes, p.Apex)
		unchanged[p.Apex] = p.Unchanged()
		switch p.Apex {
		case name("alpha.com"):
			if !p.PrevOK || !p.CurOK || !reflect.DeepEqual(p.Prev, p.Cur) {
				t.Fatalf("alpha pair: %+v", p)
			}
		case name("beta.com"):
			if !p.PrevOK || !p.CurOK || !reflect.DeepEqual(p.Prev, r2) || !reflect.DeepEqual(p.Cur, r2b) {
				t.Fatalf("beta pair: %+v", p)
			}
		case name("gamma.com"):
			if p.PrevOK || !p.CurOK {
				t.Fatalf("gamma pair: %+v", p)
			}
		}
	}
	want := []dnsmsg.Name{name("alpha.com"), name("beta.com"), name("gamma.com")}
	if !reflect.DeepEqual(apexes, want) {
		t.Fatalf("pair order %v, want %v", apexes, want)
	}
	if !unchanged[name("alpha.com")] || unchanged[name("beta.com")] || unchanged[name("gamma.com")] {
		t.Fatalf("Unchanged flags wrong: %v", unchanged)
	}

	// Day 2: gamma tombstoned — its pair must still stream with CurOK=false.
	putDay(t, s, 2, r1, r2b)
	sawGamma := false
	for pc := s.DiffPairs(2); pc.Next(); {
		p := pc.Pair()
		if p.Apex == name("gamma.com") {
			sawGamma = true
			if !p.PrevOK || p.CurOK {
				t.Fatalf("tombstoned gamma pair: %+v", p)
			}
		}
	}
	if !sawGamma {
		t.Fatal("tombstoned apex missing from DiffPairs")
	}
}

func TestWindowEviction(t *testing.T) {
	s := New()
	s.SetWindow(2)
	base := rec(1, "alpha.com", []string{"10.0.0.1"}, nil, nil, true, true)
	putDay(t, s, 0, base)
	for day := 1; day <= 5; day++ {
		putDay(t, s, day, rec(1, "alpha.com", []string{fmt.Sprintf("10.0.1.%d", day)}, nil, nil, true, true))
	}

	if got := s.Days(); !reflect.DeepEqual(got, []int{4, 5}) {
		t.Fatalf("window days = %v, want [4 5]", got)
	}
	if s.Stats().EvictedDays != 4 {
		t.Fatalf("evicted = %d, want 4", s.Stats().EvictedDays)
	}
	// Replay inside the window works; outside panics.
	if r, ok := s.SealedView().RecordAt(name("alpha.com"), 4); !ok || r.Addrs[0] != addr("10.0.1.4") {
		t.Fatalf("day-4 record: %v %v", r, ok)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("replaying an evicted day did not panic")
			}
		}()
		s.Cursor(1)
	}()

	// The retained chain holds only the window's versions (plus the base).
	if n := len(s.chains[0]); n > 2 {
		t.Fatalf("chain kept %d versions after eviction, want <= 2", n)
	}
}

func TestWindowKeepsBaseForUnchangedApex(t *testing.T) {
	s := New()
	s.SetWindow(2)
	stable := rec(1, "stable.com", []string{"10.0.0.1"}, nil, nil, true, true)
	for day := 0; day < 6; day++ {
		putDay(t, s, day, stable)
	}
	// The base version predates the window but must still serve replays.
	v := s.SealedView()
	for _, day := range s.Days() {
		if r, ok := v.RecordAt(name("stable.com"), day); !ok || !reflect.DeepEqual(r, stable) {
			t.Fatalf("day %d: %v %v", day, r, ok)
		}
	}
	if s.Stats().Versions != 1 {
		t.Fatalf("stable apex appended %d versions, want 1", s.Stats().Versions)
	}
}

func TestBeginDayMustAdvance(t *testing.T) {
	s := New()
	putDay(t, s, 3, rec(1, "alpha.com", nil, nil, nil, false, false))
	defer func() {
		if recover() == nil {
			t.Fatal("BeginDay(3) after day 3 did not panic")
		}
	}()
	s.BeginDay(3)
}

func TestDuplicatePutPanics(t *testing.T) {
	s := New()
	r := rec(1, "alpha.com", nil, nil, nil, false, false)
	putDay(t, s, 0, r)
	w := s.BeginDay(1)
	w.Put(r)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Put did not panic")
		}
	}()
	w.Put(r)
}

// TestInterningShares verifies that a repeated CNAME target is stored
// once: the interner's table grows with distinct names, not with
// occurrences.
func TestInterningShares(t *testing.T) {
	s := New()
	w := s.BeginDay(0)
	for i := 0; i < 100; i++ {
		w.Put(rec(i+1, fmt.Sprintf("site%03d.com", i),
			[]string{"10.0.0.1"}, []string{"edge.shared-cdn.net"}, []string{"ns.shared-dns.net"}, true, true))
	}
	w.Seal()
	// 1 shared CNAME + 1 shared NS host; apexes live once in the apex
	// index, not in the name table.
	if got := s.Stats().InternedNames; got != 2 {
		t.Fatalf("interned names = %d, want 2", got)
	}
}
