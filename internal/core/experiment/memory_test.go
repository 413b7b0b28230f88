package experiment

import (
	"runtime"
	"testing"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/netsim"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// retainedBytes reports the heap bytes still live after build returns:
// everything build allocated but did not return (the world, the resolver,
// its cache) is collected first, so the figure is the cost of the retained
// snapshot representation alone.
func retainedBytes(build func() any) (any, uint64) {
	before := settledHeap()
	artifact := build()
	after := settledHeap()
	if after <= before {
		return artifact, 0
	}
	return artifact, after - before
}

// settledHeap returns the live heap bytes once garbage is collected. It
// collects twice: one GC only moves sync.Pool contents to their victim
// caches, and garbage an earlier test left there would otherwise be
// freed inside the measured window, shrinking the reading.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memoryCampaign runs a dynamicsWorld collection campaign and hands each
// day to keep, returning whatever keep built up as the retained artifact.
func memoryCampaign(domains, days int, collectDay func(c *collect.Collector, day int)) any {
	w := dynamicsWorld(domains, 4242)
	doms := make([]alexa.Domain, 0, domains)
	for _, s := range w.Sites() {
		doms = append(doms, s.Domain())
	}
	collector := collect.New(w.NewResolver(netsim.RegionOregon), doms)
	for day := 0; day < days; day++ {
		collectDay(collector, day)
		w.AdvanceDay()
	}
	return nil
}

// retainLegacySnapshots is the map-based baseline: a campaign that keeps
// its history retains one full map snapshot per day.
func retainLegacySnapshots(domains, days int) any {
	var snaps []collect.Snapshot
	memoryCampaign(domains, days, func(c *collect.Collector, day int) {
		snaps = append(snaps, c.Collect(day))
	})
	return snaps
}

// retainSnapstore is the streaming path: the same campaign streamed into
// the delta-encoded store (window 0 = every day stays replayable).
func retainSnapstore(domains, days, window int) any {
	store := snapstore.New()
	store.SetWindow(window)
	memoryCampaign(domains, days, func(c *collect.Collector, day int) {
		dw := store.BeginDay(day)
		c.CollectStream(day, dw.Put)
		dw.Seal()
	})
	return store
}

// TestSnapstoreMemoryReduction is the acceptance guard for the tentpole's
// memory claim: retaining a 30-day campaign in the delta store must cost
// at most half of what the map-based []Snapshot history costs (in practice
// the ratio is far larger; 2x keeps the guard robust across GC accounting
// noise and -race overhead).
func TestSnapstoreMemoryReduction(t *testing.T) {
	const domains, days = 250, 30
	legacyArt, legacyBytes := retainedBytes(func() any { return retainLegacySnapshots(domains, days) })
	storeArt, storeBytes := retainedBytes(func() any { return retainSnapstore(domains, days, 0) })

	perDay := float64(domains * days)
	t.Logf("legacy maps: %d B retained (%.1f B/domain-day)", legacyBytes, float64(legacyBytes)/perDay)
	t.Logf("snapstore:   %d B retained (%.1f B/domain-day), stats %+v",
		storeBytes, float64(storeBytes)/perDay, storeArt.(*snapstore.Store).Stats())

	if storeBytes == 0 || legacyBytes < 2*storeBytes {
		t.Fatalf("retained bytes: legacy %d, snapstore %d — want >= 2x reduction", legacyBytes, storeBytes)
	}
	runtime.KeepAlive(legacyArt)
	runtime.KeepAlive(storeArt)
}

// BenchmarkDynamicsMemory reports the retained bytes/domain-day of a
// 42-day campaign under three retention strategies; allocs/op covers the
// full collection churn. Run with -benchtime=1x; numbers are recorded in
// EXPERIMENTS.md.
func BenchmarkDynamicsMemory(b *testing.B) {
	const domains, days = 300, 42
	for _, bc := range []struct {
		name  string
		build func() any
	}{
		{"legacy-maps", func() any { return retainLegacySnapshots(domains, days) }},
		{"snapstore-unbounded", func() any { return retainSnapstore(domains, days, 0) }},
		{"snapstore-window2", func() any { return retainSnapstore(domains, days, 2) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				artifact, bytes := retainedBytes(bc.build)
				b.ReportMetric(float64(bytes)/float64(domains*days), "retained-B/domain-day")
				runtime.KeepAlive(artifact)
			}
		})
	}
}

// BenchmarkDynamicsRun times the full streaming campaign end to end (the
// map-based reference pipeline rides along for comparison).
func BenchmarkDynamicsRun(b *testing.B) {
	run := func(b *testing.B, legacy bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w := dynamicsWorld(300, 4242)
			b.StartTimer()
			d := Dynamics{World: w, Days: 10}
			if legacy {
				legacyDynamics(d)
			} else {
				d.Run()
			}
		}
	}
	b.Run("streaming", func(b *testing.B) { run(b, false) })
	b.Run("legacy", func(b *testing.B) { run(b, true) })
}

// BenchmarkAppendDay times the incremental engine's steady state: one
// AppendDay on a warmed 42-day campaign — collection, the DiffPairs
// pass, the FSM update, and the changed-pair Table V re-verification.
// This is the daemon mode's per-round cost and the number EXPERIMENTS.md
// contrasts with re-running the whole batch campaign.
//
// The world is quiescent (all churn hazards zeroed) so every record is
// unchanged day over day: allocs/op is then deterministic enough for the
// CI bench gate, and the gate guards exactly the incremental-path
// promise — an unchanged domain must cost no re-classification and no
// re-verification, so any regression that re-touches unchanged records
// (the failure mode the engine refactor exists to prevent) shows up as
// an allocation jump. The churned-path cost rides along ungated in
// BenchmarkDynamicsRun.
//
// The engine collects on one goroutine, and the benchmark pins it to one
// P. Otherwise the goroutine migrating between Ps misses the per-P
// caches of the codec and scratch sync.Pools at scheduler-dependent
// moments, and each miss allocates afresh: allocs/op wandered by tens
// between runs of the same code. The heap is collected before timing so
// every run starts from the same state.
func BenchmarkAppendDay(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := world.PaperConfig(500)
	cfg.Seed = 4242
	cfg.JoinRate, cfg.LeaveRate, cfg.PauseRate, cfg.SwitchRate = 0, 0, 0, 0
	en := Dynamics{World: world.New(cfg)}.NewEngine()
	defer en.Close()
	for en.NextDay() < 42 {
		en.AppendDay()
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en.AppendDay()
	}
}
