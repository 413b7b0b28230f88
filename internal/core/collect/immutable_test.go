package collect_test

import (
	"net/netip"
	"path/filepath"
	"reflect"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/netsim"
	"rrdps/internal/snapdisk"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// TestRecordSlicesStayImmutable runs 42 days of a churning world through
// a 2-worker collector into the records' campaign consumers (the
// snapstore, the WAL, cursor and diff replays). Every emitted record is
// deep-copied as it is emitted; the next day, after the collector reused
// unchanged slices for the new records and the consumers had them, every
// record of the day before must still equal its copy.
func TestRecordSlicesStayImmutable(t *testing.T) {
	cfg := world.PaperConfig(300)
	cfg.Seed = 23
	cfg.JoinRate, cfg.LeaveRate, cfg.PauseRate, cfg.SwitchRate = cfg.JoinRate*8, cfg.LeaveRate*8, cfg.PauseRate*8, cfg.SwitchRate*8
	w := world.New(cfg)
	var domains []alexa.Domain
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
	}
	c := collect.New(w.NewResolver(netsim.RegionOregon), domains)
	c.SetWorkers(2)
	store := snapstore.New()
	wal, err := snapdisk.OpenWAL(filepath.Join(t.TempDir(), "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()

	var prev, prevCopies []collect.Record
	reused, changed := 0, 0
	for n := 0; n < 42; n++ {
		day := w.Day()
		var recs, copies []collect.Record
		dw := store.BeginDay(day)
		if err := wal.BeginDay(day); err != nil {
			t.Fatal(err)
		}
		c.CollectStream(day, func(rec collect.Record) {
			recs = append(recs, rec)
			copies = append(copies, deepCopy(rec))
			dw.Put(rec)
			if err := wal.Put(rec); err != nil {
				t.Fatal(err)
			}
		})
		dw.Seal()
		if err := wal.SealDay(nil); err != nil {
			t.Fatal(err)
		}
		for cur := store.Cursor(day); cur.Next(); {
			_ = cur.Record()
		}
		for pc := store.DiffPairs(day); pc.Next(); {
			_ = pc.Pair()
		}

		for i := range prev {
			if !reflect.DeepEqual(prev[i], prevCopies[i]) {
				t.Fatalf("day %d: %s's record of the day before changed:\n got %+v\nwant %+v", day, prev[i].Domain.Apex, prev[i], prevCopies[i])
			}
			switch {
			case sharesSlice(recs[i], prev[i]):
				reused++
			case !reflect.DeepEqual(recs[i], prev[i]):
				changed++
			}
		}
		prev, prevCopies = recs, copies
		w.AdvanceDay()
	}
	if reused == 0 || changed == 0 {
		t.Fatalf("%d records reused a slice, %d changed: the days did not exercise both", reused, changed)
	}
}

// deepCopy returns rec with private copies of its slices.
func deepCopy(rec collect.Record) collect.Record {
	rec.Addrs = clone(rec.Addrs)
	rec.CNAMEs = clone(rec.CNAMEs)
	rec.NSHosts = clone(rec.NSHosts)
	return rec
}

// clone copies s, keeping nil nil.
func clone[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// sharesSlice reports whether a and b share a non-empty slice's backing
// array.
func sharesSlice(a, b collect.Record) bool {
	return sameArray(a.Addrs, b.Addrs) || sameArray(a.CNAMEs, b.CNAMEs) || sameArray(a.NSHosts, b.NSHosts)
}

func sameArray[T netip.Addr | dnsmsg.Name](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}
