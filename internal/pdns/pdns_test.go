package pdns

import (
	"net/netip"
	"rrdps/internal/dnsmsg"
	"sort"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestRecordAndHistory(t *testing.T) {
	a := NewArchive()
	a.Record(1, "www.x.com", addr("10.0.0.1"))
	a.Record(3, "www.x.com", addr("10.0.0.1"))
	a.Record(5, "www.x.com", addr("10.0.0.2"))

	h := a.History("www.x.com")
	if len(h) != 2 {
		t.Fatalf("history = %+v", h)
	}
	if h[0].Addr != addr("10.0.0.1") || h[0].FirstDay != 1 || h[0].LastDay != 3 {
		t.Fatalf("first obs = %+v", h[0])
	}
	if h[1].Addr != addr("10.0.0.2") || h[1].FirstDay != 5 {
		t.Fatalf("second obs = %+v", h[1])
	}
}

func TestHistoryUnknownName(t *testing.T) {
	a := NewArchive()
	if h := a.History("nope.com"); len(h) != 0 {
		t.Fatalf("history = %v", h)
	}
}

func TestAddrsBefore(t *testing.T) {
	a := NewArchive()
	a.Record(2, "www.x.com", addr("10.0.0.1"))
	a.Record(10, "www.x.com", addr("10.0.0.2"))

	got := a.AddrsBefore("www.x.com", 5)
	if len(got) != 1 || got[0] != addr("10.0.0.1") {
		t.Fatalf("AddrsBefore(5) = %v", got)
	}
	got = a.AddrsBefore("www.x.com", 11)
	if len(got) != 2 {
		t.Fatalf("AddrsBefore(11) = %v", got)
	}
	if got := a.AddrsBefore("www.x.com", 1); len(got) != 0 {
		t.Fatalf("AddrsBefore(1) = %v", got)
	}
}

func TestRecordEmptyIsNoop(t *testing.T) {
	a := NewArchive()
	a.Record(1, "www.x.com")
	if a.Len() != 0 {
		t.Fatal("empty record stored something")
	}
}

func TestNamesAndLen(t *testing.T) {
	a := NewArchive()
	a.Record(1, "b.com", addr("10.0.0.1"))
	a.Record(1, "a.com", addr("10.0.0.1"), addr("10.0.0.2"))
	names := a.Names()
	if len(names) != 2 || names[0] != "a.com" || names[1] != "b.com" {
		t.Fatalf("names = %v", names)
	}
	if a.Len() != 3 {
		t.Fatalf("len = %d", a.Len())
	}
}

// Property: spans always satisfy FirstDay <= LastDay and bracket every
// recorded day.
func TestSpanQuickProperty(t *testing.T) {
	f := func(days []uint8) bool {
		if len(days) == 0 {
			return true
		}
		a := NewArchive()
		min, max := int(days[0]), int(days[0])
		for _, d := range days {
			day := int(d)
			a.Record(day, "www.x.com", addr("10.0.0.1"))
			if day < min {
				min = day
			}
			if day > max {
				max = day
			}
		}
		h := a.History("www.x.com")
		return len(h) == 1 && h[0].FirstDay == min && h[0].LastDay == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Len returns the number of archived (name, addr) associations.
func (a *Archive) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	n := 0
	for _, byAddr := range a.entries {
		n += len(byAddr)
	}
	return n
}

// Names returns every archived hostname, sorted.
func (a *Archive) Names() []dnsmsg.Name {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]dnsmsg.Name, 0, len(a.entries))
	for n := range a.entries {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
