package rrdps_test

import (
	"fmt"
	"runtime"
	"syscall"
	"testing"
	"time"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/netsim"
	"rrdps/internal/scenario"
	"rrdps/internal/world"
)

// BenchmarkCollectDay times one daily collect pass (health checkpoint,
// cache purge, A + NS resolution of every site) over the paper-baseline
// world, at one and two workers. Besides ns/op it reports cpu-ns/domain:
// the process's user+system CPU time per collected domain. The ratio of
// the two rows' cpu-ns/domain is the parallel efficiency of the collect
// pool — 1.0 means the second worker costs no extra CPU per domain.
// Informational: it runs concurrent workers, so the CI gate skips it.
func BenchmarkCollectDay(b *testing.B) {
	spec, err := scenario.Load("scenarios/paper-baseline.json")
	if err != nil {
		b.Fatal(err)
	}
	comp := scenario.Compile(spec)
	w := world.New(comp.World)
	var domains []alexa.Domain
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			res := w.NewResolver(netsim.RegionOregon)
			res.SetPolicy(comp.Policy)
			c := collect.New(res, domains)
			c.SetWorkers(workers)
			c.CollectStream(w.Day(), func(collect.Record) {}) // warm pools and maps
			b.ReportAllocs()
			cpu0 := processCPU(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.CollectStream(w.Day(), func(collect.Record) {})
			}
			b.StopTimer()
			cpu := processCPU(b) - cpu0
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N*len(domains)), "cpu-ns/domain")
		})
	}
}

// TestCollectDayAllocBudget pins the collect day's allocation budget: on
// a steady paper-baseline day, at GOMAXPROCS 1 so the pooled scratch
// stays on one P, a day allocates at most 4 objects per domain. What is
// left is what the day keeps: the cached answers and zone cuts, and the
// record slices of the domains whose content changed.
func TestCollectDayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec, err := scenario.Load("scenarios/paper-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	comp := scenario.Compile(spec)
	w := world.New(comp.World)
	var domains []alexa.Domain
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
	}
	res := w.NewResolver(netsim.RegionOregon)
	res.SetPolicy(comp.Policy)
	c := collect.New(res, domains)
	emit := func(collect.Record) {}
	c.CollectStream(w.Day(), emit) // warm pools, maps and yesterday's records
	allocs := testing.AllocsPerRun(5, func() { c.CollectStream(w.Day(), emit) })
	if perDomain := allocs / float64(len(domains)); perDomain > 4 {
		t.Errorf("collect day: %.0f allocs, %.2f per domain, want <= 4", allocs, perDomain)
	}
}

// processCPU returns the process's total user+system CPU time.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
