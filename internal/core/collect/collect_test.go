package collect

import (
	"reflect"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/website"
	"rrdps/internal/world"
)

func buildWorld(t *testing.T, n int) *world.World {
	t.Helper()
	cfg := world.PaperConfig(n)
	cfg.Seed = 11
	return world.New(cfg)
}

// domainList extracts the ranked domain list from a world.
func domainList(w *world.World) []alexa.Domain {
	sites := w.Sites()
	out := make([]alexa.Domain, len(sites))
	for i, s := range sites {
		out[i] = s.Domain()
	}
	return out
}

// collectDay drains one CollectStream pass into a slice, in emit order.
func collectDay(c *Collector, day int) []Record {
	var out []Record
	c.CollectStream(day, func(rec Record) { out = append(out, rec) })
	return out
}

// recordOf returns apex's record from a drained pass.
func recordOf(t *testing.T, records []Record, apex dnsmsg.Name) Record {
	t.Helper()
	for _, rec := range records {
		if rec.Domain.Apex == apex {
			return rec
		}
	}
	t.Fatalf("%s: no record", apex)
	return Record{}
}

func TestCollectSnapshot(t *testing.T) {
	w := buildWorld(t, 150)
	res := w.NewResolver(netsim.RegionOregon)
	domains := domainList(w)
	collector := New(res, domains)
	records := collectDay(collector, 0)
	if len(records) != 150 {
		t.Fatalf("records = %d", len(records))
	}
	for i, rec := range records {
		if rec.Domain != domains[i] {
			t.Fatalf("record %d is %v, want domain-list order (%v)", i, rec.Domain, domains[i])
		}
	}

	multiCDN := make(map[string]bool)
	for _, apex := range w.MultiCDNDomains() {
		multiCDN[string(apex)] = true
	}
	okCount := 0
	for _, rec := range records {
		apex := rec.Domain.Apex
		if !rec.ResolveOK {
			continue
		}
		okCount++
		if multiCDN[string(apex)] {
			continue // fronted by the multi-CDN service, not origin-served
		}
		site, _ := w.Site(apex)
		key, method, _ := site.Provider()
		switch {
		case key == "":
			if len(rec.Addrs) != 1 || rec.Addrs[0] != site.OriginAddr() {
				t.Fatalf("%s: addrs = %v, want origin", apex, rec.Addrs)
			}
		case method == dps.ReroutingCNAME:
			if len(rec.CNAMEs) == 0 {
				t.Fatalf("%s: CNAME-rerouted site with no chain", apex)
			}
		}
	}
	if okCount != 150 {
		t.Fatalf("only %d/150 resolved", okCount)
	}
}

func TestCollectPurgesBetweenRuns(t *testing.T) {
	w := buildWorld(t, 50)
	res := w.NewResolver(netsim.RegionOregon)
	collector := New(res, domainList(w))

	collectDay(collector, 0)
	var target = pickUnprotected(t, w)
	old := target.OriginAddr()
	if _, err := target.ChangeOriginIP(); err != nil {
		t.Fatal(err)
	}
	rec := recordOf(t, collectDay(collector, 1), target.Domain().Apex)
	if len(rec.Addrs) != 1 || rec.Addrs[0] == old {
		t.Fatalf("second snapshot served stale addr %v", rec.Addrs)
	}
}

func TestCollectNSRecords(t *testing.T) {
	w := buildWorld(t, 200)
	res := w.NewResolver(netsim.RegionLondon)
	collector := New(res, domainList(w))
	foundCF := false
	for _, rec := range collectDay(collector, 0) {
		apex := rec.Domain.Apex
		site, _ := w.Site(apex)
		key, method, _ := site.Provider()
		if key == dps.Cloudflare && method == dps.ReroutingNS {
			foundCF = true
			if len(rec.NSHosts) == 0 || !rec.NSHosts[0].ContainsSubstring("cloudflare") {
				t.Fatalf("%s: NS hosts = %v", apex, rec.NSHosts)
			}
		}
	}
	if !foundCF {
		t.Skip("no cloudflare NS site in sample")
	}
}

func pickUnprotected(t *testing.T, w *world.World) *website.Site {
	t.Helper()
	for _, s := range w.Sites() {
		if key, _, _ := s.Provider(); key == "" {
			return s
		}
	}
	t.Fatal("no unprotected site")
	return nil
}

func TestCollectParallelMatchesSerial(t *testing.T) {
	w := buildWorld(t, 200)
	res := w.NewResolver(netsim.RegionOregon)
	collector := New(res, domainList(w))

	serial := collectDay(collector, 0)
	collector.SetWorkers(8)
	parallel := collectDay(collector, 0)

	if len(serial) != len(parallel) {
		t.Fatalf("sizes differ: %d vs %d", len(serial), len(parallel))
	}
	for i, want := range serial {
		if got := parallel[i]; !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d (%s): parallel %+v != serial %+v", i, want.Domain.Apex, got, want)
		}
	}
}

func TestSetWorkersPanicsOnZero(t *testing.T) {
	w := buildWorld(t, 10)
	collector := New(w.NewResolver(netsim.RegionOregon), domainList(w))
	defer func() {
		if recover() == nil {
			t.Fatal("SetWorkers(0) did not panic")
		}
	}()
	collector.SetWorkers(0)
}
