package exposure

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"

	"rrdps/internal/core/filter"
	"rrdps/internal/dnsmsg"
)

// report builds a filter.Report whose hidden set is the union of hidden
// and verified (a verified origin is by construction a hidden record).
func report(hidden []string, verified []string) filter.Report {
	rep := filter.Report{}
	addr := netip.MustParseAddr("10.0.0.1")
	verifiedSet := make(map[string]bool, len(verified))
	all := make(map[string]bool, len(hidden)+len(verified))
	for _, v := range verified {
		verifiedSet[v] = true
		all[v] = true
	}
	for _, h := range hidden {
		all[h] = true
	}
	names := make([]string, 0, len(all))
	for h := range all {
		names = append(names, h)
	}
	sort.Strings(names)
	for _, h := range names {
		hid := filter.Hidden{Apex: dnsmsg.MustParseName(h), Addr: addr}
		rep.Hidden = append(rep.Hidden, hid)
		rep.Outcomes = append(rep.Outcomes, filter.Outcome{Hidden: hid, Verified: verifiedSet[h]})
	}
	return rep
}

func TestWeeklyCountsAndTotals(t *testing.T) {
	tr := NewTracker()
	tr.AddWeek(1, report([]string{"a.com", "b.com"}, []string{"a.com"}))
	tr.AddWeek(2, report([]string{"a.com", "c.com"}, []string{"a.com", "c.com"}))

	want := []WeekState{
		{Week: 1, Hidden: []dnsmsg.Name{"a.com", "b.com"}, Verified: []dnsmsg.Name{"a.com"}},
		{Week: 2, Hidden: []dnsmsg.Name{"a.com", "c.com"}, Verified: []dnsmsg.Name{"a.com", "c.com"}},
	}
	if tr.Weeks() != len(want) {
		t.Fatalf("Weeks = %d, want %d", tr.Weeks(), len(want))
	}
	for i, w := range want {
		if got := tr.ExportWeek(i); !reflect.DeepEqual(got, w) {
			t.Fatalf("ExportWeek(%d) = %+v, want %+v", i, got, w)
		}
	}
	// Totals are unions, like Table VI's total row.
	if tr.TotalHidden() != 3 {
		t.Fatalf("TotalHidden = %d", tr.TotalHidden())
	}
	if tr.TotalVerified() != 2 {
		t.Fatalf("TotalVerified = %d", tr.TotalVerified())
	}
}

func TestTimeline(t *testing.T) {
	tr := NewTracker()
	// a: weeks 1-4 (always); b: 1-2 (disappears); c: 2-3 (appears+disappears);
	// d: 4 only (appears at the end).
	tr.AddWeek(1, report(nil, []string{"a.com", "b.com"}))
	tr.AddWeek(2, report(nil, []string{"a.com", "b.com", "c.com"}))
	tr.AddWeek(3, report(nil, []string{"a.com", "c.com"}))
	tr.AddWeek(4, report(nil, []string{"a.com", "d.com"}))

	tl := tr.Timeline()
	wantNew := []int{2, 1, 0, 1}
	for i, want := range wantNew {
		if tl.NewPerWeek[i] != want {
			t.Fatalf("NewPerWeek = %v, want %v", tl.NewPerWeek, wantNew)
		}
	}
	if tl.AlwaysExposed != 1 {
		t.Fatalf("AlwaysExposed = %d", tl.AlwaysExposed)
	}
	if tl.AppearedAndDisappeared != 1 { // only c.com
		t.Fatalf("AppearedAndDisappeared = %d", tl.AppearedAndDisappeared)
	}
	if tl.Durations["a.com"] != 4 || tl.Durations["c.com"] != 2 || tl.Durations["d.com"] != 1 {
		t.Fatalf("Durations = %v", tl.Durations)
	}
}

func TestTimelineEmpty(t *testing.T) {
	tr := NewTracker()
	tl := tr.Timeline()
	if len(tl.NewPerWeek) != 0 || tl.AlwaysExposed != 0 {
		t.Fatalf("empty timeline = %+v", tl)
	}
}

func TestExposedApexesSorted(t *testing.T) {
	tr := NewTracker()
	tr.AddWeek(1, report(nil, []string{"b.com", "a.com"}))
	got := tr.ExportWeek(0).Verified
	if len(got) != 2 || got[0] != "a.com" || got[1] != "b.com" {
		t.Fatalf("ExportWeek(0).Verified = %v", got)
	}
}

func TestAddWeekOutOfOrderPanics(t *testing.T) {
	tr := NewTracker()
	tr.AddWeek(2, report(nil, nil))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order AddWeek did not panic")
		}
	}()
	tr.AddWeek(2, report(nil, nil))
}

func TestWeeks(t *testing.T) {
	tr := NewTracker()
	if tr.Weeks() != 0 {
		t.Fatal("fresh tracker has weeks")
	}
	tr.AddWeek(1, report(nil, nil))
	if tr.Weeks() != 1 {
		t.Fatal("Weeks() != 1")
	}
}
