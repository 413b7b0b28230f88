package collect

import (
	"testing"

	"rrdps/internal/alexa"
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

func TestCollectSnapshot(t *testing.T) {
	w := buildWorld(t, 150)
	res := w.NewResolver(netsim.RegionOregon)
	collector := New(res, domainList(w))
	snap := collector.Collect(0)
	if snap.Day != 0 {
		t.Fatalf("day = %d", snap.Day)
	}
	if len(snap.Records) != 150 {
		t.Fatalf("records = %d", len(snap.Records))
	}

	multiCDN := make(map[string]bool)
	for _, apex := range w.MultiCDNDomains() {
		multiCDN[string(apex)] = true
	}
	okCount := 0
	for apex, rec := range snap.Records {
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

	collector.Collect(0)
	var target = pickUnprotected(t, w)
	old := target.OriginAddr()
	if _, err := target.ChangeOriginIP(); err != nil {
		t.Fatal(err)
	}
	snap := collector.Collect(1)
	rec := snap.Records[target.Domain().Apex]
	if len(rec.Addrs) != 1 || rec.Addrs[0] == old {
		t.Fatalf("second snapshot served stale addr %v", rec.Addrs)
	}
}

func TestCollectNSRecords(t *testing.T) {
	w := buildWorld(t, 200)
	res := w.NewResolver(netsim.RegionLondon)
	collector := New(res, domainList(w))
	snap := collector.Collect(0)

	foundCF := false
	for apex, rec := range snap.Records {
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

func TestSnapshotApexesRankOrder(t *testing.T) {
	w := buildWorld(t, 40)
	res := w.NewResolver(netsim.RegionOregon)
	collector := New(res, domainList(w))
	snap := collector.Collect(0)
	apexes := snap.Apexes()
	if len(apexes) != 40 {
		t.Fatalf("apexes = %d", len(apexes))
	}
	for i := 1; i < len(apexes); i++ {
		if snap.Records[apexes[i-1]].Domain.Rank >= snap.Records[apexes[i]].Domain.Rank {
			t.Fatal("apexes not in rank order")
		}
	}
}

func TestResolveOne(t *testing.T) {
	w := buildWorld(t, 30)
	res := w.NewResolver(netsim.RegionOregon)
	collector := New(res, domainList(w))
	site := pickUnprotected(t, w)
	addrs, err := collector.ResolveOne(site.WWW())
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != site.OriginAddr() {
		t.Fatalf("addrs = %v", addrs)
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

	serial := collector.Collect(0)
	collector.SetWorkers(8)
	parallel := collector.Collect(0)

	if len(serial.Records) != len(parallel.Records) {
		t.Fatalf("sizes differ: %d vs %d", len(serial.Records), len(parallel.Records))
	}
	for apex, want := range serial.Records {
		got := parallel.Records[apex]
		if got.ResolveOK != want.ResolveOK || got.NSOK != want.NSOK ||
			len(got.Addrs) != len(want.Addrs) || len(got.CNAMEs) != len(want.CNAMEs) ||
			len(got.NSHosts) != len(want.NSHosts) {
			t.Fatalf("%s: parallel %+v != serial %+v", apex, got, want)
		}
		for i := range want.Addrs {
			if got.Addrs[i] != want.Addrs[i] {
				t.Fatalf("%s: addrs differ", apex)
			}
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
