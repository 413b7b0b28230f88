package shardrun

// The keystone suite for the shard-parallel driver: Merge(shard
// results) ≡ unsharded run must hold as VALUE identity for every
// scientific artifact, across shard counts {1, 2, 4, 8}, under fault
// plans, under long-interval jitter, and across a crash and resume of
// an individual shard. Stats and Sidelined are the documented
// exception (shared infrastructure queries are issued once per shard)
// and are skipped, the same latitude the serial≡parallel comparisons
// in internal/core/experiment allow.
//
// Run with -race: shards run one at a time, but each shard's campaign
// fans its measurement loops out over Workers, and the race detector
// checks those pools under every shard layout.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rrdps/internal/core/experiment"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/netsim"
	"rrdps/internal/world"
)

// diffResults compares two results field by field so a failure names
// the artifact that diverged instead of dumping both structs.
func diffResults(t *testing.T, sharded, unsharded any, skip ...string) {
	t.Helper()
	skipped := make(map[string]bool, len(skip))
	for _, name := range skip {
		skipped[name] = true
	}
	sv, uv := reflect.ValueOf(sharded), reflect.ValueOf(unsharded)
	if sv.Type() != uv.Type() {
		t.Fatalf("type mismatch: %v vs %v", sv.Type(), uv.Type())
	}
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if skipped[name] {
			continue
		}
		if !reflect.DeepEqual(sv.Field(i).Interface(), uv.Field(i).Interface()) {
			t.Errorf("%s differs:\nsharded:   %+v\nunsharded: %+v",
				name, sv.Field(i).Interface(), uv.Field(i).Interface())
		}
	}
}

// resultSkips is the standing exception list: per-shard resilience
// accounting legitimately differs from an unsharded run's (shared
// infrastructure queries are issued once per shard).
var resultSkips = []string{"Stats", "Sidelined"}

// dynamicsConfig mirrors the churn-boosted world the experiment suite
// uses, so short sharded runs exercise every behaviour kind.
func dynamicsConfig(n int, seed int64) world.Config {
	cfg := world.PaperConfig(n)
	cfg.Seed = seed
	cfg.JoinRate = 0.01
	cfg.LeaveRate = 0.02
	cfg.PauseRate = 0.04
	cfg.SwitchRate = 0.01
	return cfg
}

func residualConfig(n int, seed int64) world.Config {
	cfg := world.PaperConfig(n)
	cfg.Seed = seed
	cfg.LeaveRate = 0.01
	cfg.SwitchRate = 0.008
	cfg.JoinRate = 0.002
	return cfg
}

// firstPolicy is DefaultPolicy with deterministic nameserver selection.
// P2C selection keeps EWMA health state whose evolution depends on
// which queries a pass issues — a population-layout dependence — so
// fault-plan equivalence runs pin SelectFirst, exactly as the residual
// scanner itself does.
func firstPolicy() *dnsresolver.Policy {
	p := dnsresolver.DefaultPolicy()
	p.Selection = dnsresolver.SelectFirst
	return &p
}

func TestAssignStableAndBalanced(t *testing.T) {
	apexes := make([]dnsmsg.Name, 10000)
	for i := range apexes {
		apexes[i] = dnsmsg.Name(fmt.Sprintf("site-%05d.example.", i))
	}
	for _, shards := range []int{1, 2, 4, 8, 13} {
		counts := make([]int, shards)
		for _, apex := range apexes {
			got := Assign(apex, shards)
			if got < 0 || got >= shards {
				t.Fatalf("Assign(%q, %d) = %d, out of range", apex, shards, got)
			}
			if again := Assign(apex, shards); again != got {
				t.Fatalf("Assign(%q, %d) unstable: %d then %d", apex, shards, got, again)
			}
			counts[got]++
		}
		mean := len(apexes) / shards
		for s, n := range counts {
			if n < mean*6/10 || n > mean*14/10 {
				t.Errorf("shards=%d: shard %d holds %d apexes, mean %d — hash is skewed",
					shards, s, n, mean)
			}
		}
	}
	if Assign("anything.example.", 1) != 0 {
		t.Error("single-shard layout must assign everything to shard 0")
	}
}

func TestKeepFuncPartitions(t *testing.T) {
	if KeepFunc(0, 1) != nil {
		t.Fatal("shards=1 must return a nil predicate (keep everything)")
	}
	w := world.New(dynamicsConfig(200, 7))
	const shards = 4
	for _, site := range w.Sites() {
		kept := 0
		for s := 0; s < shards; s++ {
			if KeepFunc(s, shards)(site.Domain()) {
				kept++
			}
		}
		if kept != 1 {
			t.Fatalf("%s kept by %d shards, want exactly 1", site.Domain().Apex, kept)
		}
	}
}

func TestDynamicsShardEquivalence(t *testing.T) {
	cfg := dynamicsConfig(240, 4101)
	const days = 6
	unsharded := experiment.Dynamics{World: world.New(cfg), Days: days}.Run()
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			run := Dynamics{Config: cfg, Days: days, Shards: shards}.Run()
			diffResults(t, run.Merged, unsharded, resultSkips...)
		})
	}
}

func TestResidualShardEquivalence(t *testing.T) {
	// 640 sites keeps every 8-shard slice (~80 apexes) comfortably above
	// the discovery precondition: each shard must hold at least one
	// NS-rerouting customer per week to find the scan fleet at all.
	cfg := residualConfig(640, 4201)
	build := func() experiment.Residual {
		return experiment.Residual{
			World: world.New(cfg), Weeks: 3, WarmupDays: 7, IncapsulaStartWeek: 2,
		}
	}
	unsharded := build().Run()
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			run := Residual{
				Config: cfg, Weeks: 3, WarmupDays: 7, IncapsulaStartWeek: 2,
				Shards: shards,
			}.Run()
			diffResults(t, run.Merged, unsharded, resultSkips...)
		})
	}
}

// Fault-plan equivalence: netsim faults are pure content hashes of
// (seed, endpoint, sim time, payload), so a shard issuing the same
// query as the unsharded run hits the same fault. Selection is pinned
// to SelectFirst to keep the retry schedule layout-independent.
func TestDynamicsShardEquivalenceWithFaults(t *testing.T) {
	cfg := dynamicsConfig(240, 4301)
	cfg.Faults = netsim.FaultConfig{Seed: 431, LossRate: 0.02, CorruptRate: 0.02}
	const days = 5
	unsharded := experiment.Dynamics{
		World: world.New(cfg), Days: days, Policy: firstPolicy(),
	}.Run()
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			run := Dynamics{
				Config: cfg, Days: days, Shards: shards, Policy: firstPolicy(),
			}.Run()
			diffResults(t, run.Merged, unsharded, resultSkips...)
		})
	}
}

func TestResidualShardEquivalenceWithFaults(t *testing.T) {
	cfg := residualConfig(280, 4401)
	cfg.Faults = netsim.FaultConfig{Seed: 443, LossRate: 0.02, CorruptRate: 0.02}
	unsharded := experiment.Residual{
		World: world.New(cfg), Weeks: 2, WarmupDays: 7, IncapsulaStartWeek: 1,
		Policy: firstPolicy(),
	}.Run()
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			run := Residual{
				Config: cfg, Weeks: 2, WarmupDays: 7, IncapsulaStartWeek: 1,
				Shards: shards, Policy: firstPolicy(),
			}.Run()
			diffResults(t, run.Merged, unsharded, resultSkips...)
		})
	}
}

// Long-interval jitter: every shard seeds its own jitter Rand from the
// same JitterSeed, so all world replicas (and the unsharded baseline)
// draw the same gap schedule and advance in lockstep.
func unshardedJittered(cfg world.Config, days int, longProb float64, seed int64) experiment.DynamicsResult {
	return experiment.Dynamics{
		World:            world.New(cfg),
		Days:             days,
		LongIntervalProb: longProb,
		Rand:             rand.New(rand.NewSource(seed)),
	}.Run()
}

func TestDynamicsShardEquivalenceLongIntervals(t *testing.T) {
	cfg := dynamicsConfig(220, 4501)
	const (
		days       = 7
		longProb   = 0.4
		jitterSeed = 17
	)
	unsharded := unshardedJittered(cfg, days, longProb, jitterSeed)
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			run := Dynamics{
				Config: cfg, Days: days, Shards: shards,
				LongIntervalProb: longProb, JitterSeed: jitterSeed,
			}.Run()
			diffResults(t, run.Merged, unsharded, resultSkips...)
		})
	}
}

// TestAfterShard pins the hook cmd/rrscan sums the Fig. 7 per-PoP
// counters through: one call per runnable shard, in index order, each
// with the world replica that shard's campaign ran on, and under Only a
// call for the listed shards alone. A shard's world is recognised by its
// fabric traffic, which must equal that of the shard's campaign run on
// its own.
func TestAfterShard(t *testing.T) {
	const shards = 3
	kinds := []struct {
		name string
		cfg  world.Config
		day  int // world day after the campaign
		// sharded runs the driver with the hook; alone runs shard i's
		// campaign on w without the driver.
		sharded func(cfg world.Config, only []int, hook func(int, *world.World))
		alone   func(i int, w *world.World)
	}{
		{
			name: "dynamics", cfg: dynamicsConfig(120, 4601), day: 2,
			sharded: func(cfg world.Config, only []int, hook func(int, *world.World)) {
				Dynamics{Config: cfg, Days: 2, Shards: shards, Only: only, AfterShard: hook}.Run()
			},
			alone: func(i int, w *world.World) {
				experiment.Dynamics{World: w, Days: 2, Keep: KeepFunc(i, shards),
					TopCut: wholePopulationTopCut(w)}.Run()
			},
		},
		{
			name: "residual", cfg: residualConfig(120, 4602), day: 7,
			sharded: func(cfg world.Config, only []int, hook func(int, *world.World)) {
				Residual{Config: cfg, Weeks: 1, Shards: shards, Only: only, AfterShard: hook}.Run()
			},
			alone: func(i int, w *world.World) {
				experiment.Residual{World: w, Weeks: 1, Keep: KeepFunc(i, shards)}.Run()
			},
		},
	}
	for _, kind := range kinds {
		wantSends := make([]uint64, shards)
		for i := range wantSends {
			w := world.New(kind.cfg)
			kind.alone(i, w)
			wantSends[i], _ = w.Net.Stats()
		}
		for _, tc := range []struct {
			name       string
			only, want []int
		}{
			{"all", nil, []int{0, 1, 2}},
			{"only", []int{2, 0}, []int{0, 2}},
		} {
			t.Run(kind.name+"/"+tc.name, func(t *testing.T) {
				var got []int
				seen := make(map[*world.World]bool)
				kind.sharded(kind.cfg, tc.only, func(i int, w *world.World) {
					got = append(got, i)
					if seen[w] {
						t.Errorf("shard %d: world replica already handed to AfterShard", i)
					}
					seen[w] = true
					if w.Day() != kind.day {
						t.Errorf("shard %d: world at day %d, want %d (campaign not finished)", i, w.Day(), kind.day)
					}
					if sends, _ := w.Net.Stats(); sends != wantSends[i] {
						t.Errorf("shard %d: world carries %d sends, want %d (shard %d's campaign alone)", i, sends, wantSends[i], i)
					}
				})
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("AfterShard calls = %v, want %v", got, tc.want)
				}
			})
		}
	}
}

// TestDynamicsShardCrashResume is the per-shard crash/resume keystone:
// one shard dies mid-campaign while its siblings run to completion;
// resuming re-drives only the dead shard, and the merged report is
// value-identical to an uninterrupted sharded run (itself pinned to the
// unsharded result above).
func TestDynamicsShardCrashResume(t *testing.T) {
	cfg := dynamicsConfig(240, 4701)
	const (
		days   = 6
		shards = 4
	)
	unsharded := experiment.Dynamics{World: world.New(cfg), Days: days}.Run()
	for _, dead := range []int{0, 2} {
		t.Run(fmt.Sprintf("dead-shard-%d", dead), func(t *testing.T) {
			dir := t.TempDir()
			build := func() Dynamics {
				return Dynamics{
					Config: cfg, Days: days, Shards: shards,
					CheckpointDir: dir, CheckpointEvery: 2,
				}
			}

			// First run: shard `dead` is killed after 3 collected days;
			// every sibling completes.
			crash := build()
			crash.StopShard = dead
			crash.StopAfterDays = 3
			crashed := crash.Run()

			// Resume ONLY the dead shard from its own directory; the
			// sibling directories are never reopened.
			redrive := build()
			redrive.Resume = true
			redrive.Only = []int{dead}
			resumed := redrive.Run()

			// Merge the re-driven shard with the siblings' first-run
			// results; the recombined report must match the unsharded
			// baseline exactly.
			var merged experiment.DynamicsResult
			for i := 0; i < shards; i++ {
				if i == dead {
					merged = merged.Merge(resumed.PerShard[i])
				} else {
					merged = merged.Merge(crashed.PerShard[i])
				}
			}
			diffResults(t, merged, unsharded, resultSkips...)

			// A fleet-wide resume must reach the same place: completed
			// shards recover their final cursor without re-collecting.
			all := build()
			all.Resume = true
			diffResults(t, all.Run().Merged, unsharded, resultSkips...)
		})
	}
}

func TestResidualShardCrashResume(t *testing.T) {
	cfg := residualConfig(280, 4801)
	const shards = 4
	build := func(dir string) Residual {
		return Residual{
			Config: cfg, Weeks: 3, WarmupDays: 7, IncapsulaStartWeek: 2,
			Shards: shards, CheckpointDir: dir, CheckpointEvery: 7,
		}
	}
	unsharded := experiment.Residual{
		World: world.New(cfg), Weeks: 3, WarmupDays: 7, IncapsulaStartWeek: 2,
	}.Run()

	dir := t.TempDir()
	crash := build(dir)
	crash.StopShard = 1
	crash.StopAfterRounds = 2
	crashed := crash.Run()

	redrive := build(dir)
	redrive.Resume = true
	redrive.Only = []int{1}
	resumed := redrive.Run()

	var merged experiment.ResidualResult
	for i := 0; i < shards; i++ {
		if i == 1 {
			merged = merged.Merge(resumed.PerShard[i])
		} else {
			merged = merged.Merge(crashed.PerShard[i])
		}
	}
	diffResults(t, merged, unsharded, resultSkips...)
}

func TestShardDirLayout(t *testing.T) {
	if got, want := ShardDir("/tmp/ckpt", 3), "/tmp/ckpt/shard-0003"; got != want {
		t.Fatalf("ShardDir = %q, want %q", got, want)
	}
	if got, want := ShardDir("ckpt", 11), "ckpt/shard-0011"; got != want {
		t.Fatalf("ShardDir = %q, want %q", got, want)
	}
}

func TestRunPanicsOnBadShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shards=0 must panic")
		}
	}()
	Dynamics{Config: dynamicsConfig(10, 1), Days: 1, Shards: 0}.Run()
}

// TestOnlyPanicsOutOfRange: an Only index outside [0, Shards), or one
// listed twice (which would run the shard twice into one checkpoint
// directory and merge it twice), must panic before any shard runs.
func TestOnlyPanicsOutOfRange(t *testing.T) {
	for _, only := range [][]int{{5}, {-1}, {1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Only=%v with Shards=4 must panic", only)
				}
			}()
			Dynamics{Config: dynamicsConfig(10, 1), Days: 1, Shards: 4, Only: only,
				AfterShard: func(i int, _ *world.World) {
					t.Errorf("Only=%v: shard %d ran before the panic", only, i)
				}}.Run()
		}()
	}
}
