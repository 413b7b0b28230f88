package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/snapdisk"
	"rrdps/internal/world"
)

// The resume-equivalence suite pins the durability tentpole's keystone
// guarantee: a campaign killed at ANY round boundary — or mid-day, with
// the WAL cut at an arbitrary byte — and resumed against a fresh world
// built from the same config produces a result value-identical to an
// uninterrupted run. The baseline runs WITHOUT a checkpoint directory,
// so the suite simultaneously pins that checkpointing itself never
// perturbs a campaign's outputs.

// dynCfg parametrizes one Dynamics resume scenario.
type dynCfg struct {
	sites    int
	seed     int64
	days     int
	workers  int
	every    int
	longProb float64
	faults   netsim.FaultConfig
}

func (c dynCfg) build(dir string, resume bool, stopAfter int) Dynamics {
	wc := dynamicsConfig(c.sites, c.seed)
	wc.Faults = c.faults
	return Dynamics{
		World:            world.New(wc),
		Days:             c.days,
		Workers:          c.workers,
		CheckpointDir:    dir,
		CheckpointEvery:  c.every,
		Resume:           resume,
		LongIntervalProb: c.longProb,
		stopAfterDays:    stopAfter,
	}
}

// killAndResume runs the campaign to a simulated kill after stopAfter
// days, then resumes it to completion in a second process-equivalent run.
func (c dynCfg) killAndResume(t *testing.T, dir string, stopAfter int) DynamicsResult {
	t.Helper()
	c.build(dir, false, stopAfter).Run()
	return c.build(dir, true, 0).Run()
}

// resumeFabrics are the fabrics the boundary sweeps kill campaigns on: a
// clean one and the seeded fault plan. The plan's decisions hash each
// send's content, so a resumed run retries exactly the queries an
// uninterrupted one does. The prefix names the sweep's subtests.
var resumeFabrics = []struct {
	prefix string
	faults netsim.FaultConfig
}{{"", netsim.FaultConfig{}}, {"faults-", faultPlan}}

func TestDynamicsResumeEveryDayBoundary(t *testing.T) {
	for _, tc := range resumeFabrics {
		cfg := dynCfg{sites: 300, seed: 8101, days: 8, every: 3, faults: tc.faults}
		baseline := cfg.build("", false, 0).Run()
		if tc.faults.Enabled() && baseline.Stats.Retries == 0 {
			t.Fatalf("fault plan forced no retries: %v", baseline.Stats)
		}
		for kill := 1; kill < cfg.days; kill++ {
			t.Run(fmt.Sprintf("%skill-after-day-%d", tc.prefix, kill), func(t *testing.T) {
				resumed := cfg.killAndResume(t, t.TempDir(), kill)
				diffResults(t, resumed, baseline)
			})
		}
	}
}

func TestDynamicsResumeParallel(t *testing.T) {
	cfg := dynCfg{sites: 300, seed: 8103, days: 8, every: 3, workers: 4}
	baseline := cfg.build("", false, 0).Run()
	for _, kill := range []int{2, 5} {
		t.Run(fmt.Sprintf("kill-after-day-%d", kill), func(t *testing.T) {
			// Workers > 1: resolver stats depend on goroutine interleaving
			// over the shared cache, the same latitude every other
			// serial≡parallel comparison in this package allows.
			diffResults(t, cfg.killAndResume(t, t.TempDir(), kill), baseline, "Stats")
		})
	}
}

func TestDynamicsResumeLongIntervals(t *testing.T) {
	// Long gaps move the world clock ahead of the loop index; a resumed
	// campaign must take the same gaps after the restart.
	cfg := dynCfg{sites: 250, seed: 8107, days: 9, every: 2, longProb: 0.4}
	baseline := cfg.build("", false, 0).Run()
	for _, kill := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("kill-after-day-%d", kill), func(t *testing.T) {
			diffResults(t, cfg.killAndResume(t, t.TempDir(), kill), baseline)
		})
	}
}

// TestDynamicsResumeParentCursor: dynamics cursors once counted
// long-gap draws under "rand_draws", and every binary that wrote the key
// wrote 0 (none sets LongIntervalProb). The decoder skips the key, so
// such a directory resumes to the uninterrupted result.
func TestDynamicsResumeParentCursor(t *testing.T) {
	cfg := dynCfg{sites: 250, seed: 8107, days: 6, every: 1}
	baseline := cfg.build("", false, 0).Run()
	dir := t.TempDir()
	cfg.build(dir, false, 3).Run()
	d, err := snapdisk.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, blob, label, ok, err := d.LatestCheckpoint()
	if err != nil || !ok {
		t.Fatalf("no checkpoint after the kill: ok %v, err %v", ok, err)
	}
	old := append([]byte(`{"rand_draws":0,`), blob[1:]...)
	if err := d.WriteCheckpoint(label, st, old); err != nil {
		t.Fatal(err)
	}
	diffResults(t, cfg.build(dir, true, 0).Run(), baseline)
}

// TestDynamicsResumeMidDayWALCut simulates the harder crash: the process
// died mid-write, leaving the WAL cut at an arbitrary byte. The torn
// tail — up to and including the last sealed group the cut destroys —
// is dropped and those days are re-collected live; the resumed result
// must still be value-identical.
func TestDynamicsResumeMidDayWALCut(t *testing.T) {
	cfg := dynCfg{sites: 300, seed: 8101, days: 8, every: 1000} // one checkpoint at day 0, everything after in the WAL
	baseline := cfg.build("", false, 0).Run()
	for _, cut := range []int{4, 600, 20000} {
		t.Run(fmt.Sprintf("cut-%d-bytes", cut), func(t *testing.T) {
			dir := t.TempDir()
			cfg.build(dir, false, 5).Run()
			walPath := filepath.Join(dir, "wal.log")
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if int64(cut) >= fi.Size() {
				t.Fatalf("cut %d >= wal size %d; shrink the cut", cut, fi.Size())
			}
			if err := os.Truncate(walPath, fi.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}
			diffResults(t, cfg.build(dir, true, 0).Run(), baseline)
		})
	}
}

// TestDynamicsResumeCorruptNewestCheckpoint damages the newest
// checkpoint file: resume must fall back to the older rotation and
// re-run the lost days live, still matching the baseline.
func TestDynamicsResumeCorruptNewestCheckpoint(t *testing.T) {
	cfg := dynCfg{sites: 300, seed: 8101, days: 8, every: 2}
	baseline := cfg.build("", false, 0).Run()
	dir := t.TempDir()
	cfg.build(dir, false, 6).Run()
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.snap"))
	if err != nil || len(matches) < 2 {
		t.Fatalf("checkpoint rotation files: %v (%v)", matches, err)
	}
	// Glob sorts lexically and the labels are zero-padded, so the last
	// match is the newest checkpoint.
	if err := os.WriteFile(matches[len(matches)-1], []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	diffResults(t, cfg.build(dir, true, 0).Run(), baseline)
}

// TestDynamicsResumeTwice kills the campaign twice — once in the
// original run and once in the first resumed run — before letting a
// second resume finish it. This pins that the cursor's BaseStats stays
// cumulative across restarts: the first resume must fold the accounting
// it inherited into every footer/checkpoint it writes, or the second
// resume silently drops all pre-first-crash query accounting.
func TestDynamicsResumeTwice(t *testing.T) {
	cfg := dynCfg{sites: 300, seed: 8101, days: 8, every: 3}
	baseline := cfg.build("", false, 0).Run()
	for _, kills := range [][2]int{{2, 3}, {3, 2}, {1, 1}} {
		t.Run(fmt.Sprintf("kill-after-%d-then-%d", kills[0], kills[1]), func(t *testing.T) {
			dir := t.TempDir()
			cfg.build(dir, false, kills[0]).Run()
			cfg.build(dir, true, kills[1]).Run()
			diffResults(t, cfg.build(dir, true, 0).Run(), baseline)
		})
	}
}

func TestDynamicsResumeCompletedCampaignIsNoop(t *testing.T) {
	cfg := dynCfg{sites: 250, seed: 8109, days: 6, every: 2}
	dir := t.TempDir()
	first := cfg.build(dir, false, 0).Run()
	again := cfg.build(dir, true, 0).Run()
	diffResults(t, again, first)
}

func TestDynamicsResumeEmptyDirStartsFresh(t *testing.T) {
	cfg := dynCfg{sites: 250, seed: 8111, days: 5, every: 2}
	baseline := cfg.build("", false, 0).Run()
	diffResults(t, cfg.build(t.TempDir(), true, 0).Run(), baseline)
}

// resCfg parametrizes one Residual resume scenario.
type resCfg struct {
	sites    int
	seed     int64
	weeks    int
	warmup   int
	incStart int
	workers  int
	every    int
	faults   netsim.FaultConfig
}

func (c resCfg) build(dir string, resume bool, stopAfter int) Residual {
	wc := residualConfig(c.sites, c.seed)
	wc.Faults = c.faults
	return Residual{
		World:              world.New(wc),
		Weeks:              c.weeks,
		WarmupDays:         c.warmup,
		IncapsulaStartWeek: c.incStart,
		Workers:            c.workers,
		CheckpointDir:      dir,
		CheckpointEvery:    c.every,
		Resume:             resume,
		stopAfterRounds:    stopAfter,
	}
}

func (c resCfg) rounds() int { return (c.warmup+6)/7 + c.weeks }

func (c resCfg) killAndResume(t *testing.T, dir string, stopAfter int) ResidualResult {
	t.Helper()
	c.build(dir, false, stopAfter).Run()
	return c.build(dir, true, 0).Run()
}

func TestResidualResumeEveryRoundBoundary(t *testing.T) {
	// warmup 14 = two warm-up rounds, then three weekly rounds; the kill
	// sweep covers both warm-up and scan-week boundaries.
	for _, tc := range resumeFabrics {
		cfg := resCfg{sites: 400, seed: 9001, weeks: 3, warmup: 14, incStart: 2, every: 7, faults: tc.faults}
		baseline := cfg.build("", false, 0).Run()
		if tc.faults.Enabled() && baseline.Stats.Retries == 0 {
			t.Fatalf("fault plan forced no retries: %v", baseline.Stats)
		}
		for kill := 1; kill < cfg.rounds(); kill++ {
			t.Run(fmt.Sprintf("%skill-after-round-%d", tc.prefix, kill), func(t *testing.T) {
				diffResults(t, cfg.killAndResume(t, t.TempDir(), kill), baseline)
			})
		}
	}
}

func TestResidualResumeParallel(t *testing.T) {
	cfg := resCfg{sites: 400, seed: 9003, weeks: 3, warmup: 7, workers: 4, every: 7}
	baseline := cfg.build("", false, 0).Run()
	for _, kill := range []int{1, 3} {
		t.Run(fmt.Sprintf("kill-after-round-%d", kill), func(t *testing.T) {
			diffResults(t, cfg.killAndResume(t, t.TempDir(), kill), baseline, "Stats")
		})
	}
}

func TestResidualResumeMidRoundWALCut(t *testing.T) {
	cfg := resCfg{sites: 400, seed: 9001, weeks: 3, warmup: 14, incStart: 2, every: 1000}
	baseline := cfg.build("", false, 0).Run()
	for _, cut := range []int{3, 900} {
		t.Run(fmt.Sprintf("cut-%d-bytes", cut), func(t *testing.T) {
			dir := t.TempDir()
			cfg.build(dir, false, 3).Run()
			walPath := filepath.Join(dir, "wal.log")
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if int64(cut) >= fi.Size() {
				t.Fatalf("cut %d >= wal size %d; shrink the cut", cut, fi.Size())
			}
			if err := os.Truncate(walPath, fi.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}
			diffResults(t, cfg.build(dir, true, 0).Run(), baseline)
		})
	}
}

// TestResidualResumeTwice is the Residual double-kill counterpart: the
// second resume only matches the uninterrupted baseline if the first
// resume kept the inherited BaseStats in the cursors it wrote.
func TestResidualResumeTwice(t *testing.T) {
	cfg := resCfg{sites: 400, seed: 9001, weeks: 3, warmup: 14, incStart: 2, every: 7}
	baseline := cfg.build("", false, 0).Run()
	for _, kills := range [][2]int{{2, 2}, {1, 3}} {
		t.Run(fmt.Sprintf("kill-after-%d-then-%d", kills[0], kills[1]), func(t *testing.T) {
			dir := t.TempDir()
			cfg.build(dir, false, kills[0]).Run()
			cfg.build(dir, true, kills[1]).Run()
			diffResults(t, cfg.build(dir, true, 0).Run(), baseline)
		})
	}
}

func TestResidualResumeCompletedCampaignIsNoop(t *testing.T) {
	cfg := resCfg{sites: 300, seed: 9007, weeks: 2, warmup: 7, every: 7}
	dir := t.TempDir()
	first := cfg.build(dir, false, 0).Run()
	again := cfg.build(dir, true, 0).Run()
	diffResults(t, again, first)
}

// TestResidualResumeRestoresNetworkCounters pins the fabric-accounting
// half of resume equivalence: the per-endpoint per-PoP query counters
// (the Fig. 7 load spread, read off the world after the run) must match
// an uninterrupted run's exactly, even though the resumed process never
// re-issues the checkpointed rounds' queries.
func TestResidualResumeRestoresNetworkCounters(t *testing.T) {
	cfg := resCfg{sites: 400, seed: 9011, weeks: 2, warmup: 7, every: 7}
	wBase := residualWorld(cfg.sites, cfg.seed)
	baseline := Residual{World: wBase, Weeks: cfg.weeks, WarmupDays: cfg.warmup}.Run()

	dir := t.TempDir()
	cfg.build(dir, false, 2).Run()
	wRes := residualWorld(cfg.sites, cfg.seed)
	resumed := Residual{World: wRes, Weeks: cfg.weeks, WarmupDays: cfg.warmup,
		CheckpointDir: dir, CheckpointEvery: cfg.every, Resume: true}.Run()

	diffResults(t, resumed, baseline)
	if !reflect.DeepEqual(wRes.Net.ExportCounters(), wBase.Net.ExportCounters()) {
		t.Fatal("resumed fabric counters differ from the uninterrupted run's")
	}
}

func TestDynamicsResumeRestoresNetworkCounters(t *testing.T) {
	cfg := dynCfg{sites: 250, seed: 8117, days: 6, every: 2}
	wBase := dynamicsWorld(cfg.sites, cfg.seed)
	baseline := Dynamics{World: wBase, Days: cfg.days}.Run()

	dir := t.TempDir()
	cfg.build(dir, false, 3).Run()
	wRes := dynamicsWorld(cfg.sites, cfg.seed)
	resumed := Dynamics{World: wRes, Days: cfg.days,
		CheckpointDir: dir, CheckpointEvery: cfg.every, Resume: true}.Run()

	diffResults(t, resumed, baseline)
	if !reflect.DeepEqual(wRes.Net.ExportCounters(), wBase.Net.ExportCounters()) {
		t.Fatal("resumed fabric counters differ from the uninterrupted run's")
	}
}

// TestCheckpointingDoesNotPerturbLegacyEquivalence closes the loop with
// the streaming≡legacy suite: a checkpointing streaming run still
// matches the legacy pipeline.
func TestCheckpointingMatchesLegacy(t *testing.T) {
	legacy := legacyDynamics(Dynamics{World: dynamicsWorld(300, 8115), Days: 6})
	durable := Dynamics{World: dynamicsWorld(300, 8115), Days: 6,
		CheckpointDir: t.TempDir(), CheckpointEvery: 2}.Run()
	diffResults(t, durable, legacy)
}

func TestCheckpointRejectsProviderAudit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ProviderAudit + CheckpointDir did not panic")
		}
	}()
	Residual{World: residualWorld(50, 1), Weeks: 1, ProviderAudit: true, CheckpointDir: t.TempDir()}.Run()
}

// TestResidualCursorSkipsRetiredField: residual cursors once carried
// each week's discovered nameserver set under "ns_hosts_by_week". The
// decoder must skip that field, so checkpoint directories that still
// hold it keep resuming.
func TestResidualCursorSkipsRetiredField(t *testing.T) {
	blob := []byte(`{"kind":"residual","next_week":3,"nameserver_count":8,` +
		`"ns_hosts_by_week":{"1":["ada.ns.cloudflare.com."],"2":["ada.ns.cloudflare.com.","bob.ns.cloudflare.com."]}}`)
	cur, err := decodeCursor[residualCursor](blob, cursorKindResidual)
	if err != nil {
		t.Fatal(err)
	}
	if cur.NextWeek != 3 || cur.NameserverCount != 8 {
		t.Fatalf("decoded next_week %d nameserver_count %d, want 3 and 8", cur.NextWeek, cur.NameserverCount)
	}
}

// retiredMetrics plants, in the registry of a run that is then killed,
// metrics this binary no longer publishes: the per-stripe cache counters
// and the histograms an older resolver kept, one under the name of
// today's dns.backoff_ns counter. Its checkpoints then carry them in
// their obs snapshot, as an older binary's do.
func retiredMetrics(reg *obs.Registry) {
	reg.VolatileCounter("dns.cache.stripe00.hit").Add(7)
	reg.VolatileCounter("dns.cache.stripe63.miss").Add(3)
	reg.VolatileHistogram("dns.backoff_ns").Observe(1 << 20)
	reg.VolatileHistogram("dns.attempts_per_query").Observe(2)
}

// checkResumedObs requires a resumed run's registry to hold no retired
// metric and, outside the volatile dns.* set, exactly what an
// uninterrupted run's registry holds: every metric a component counts
// before the kill carries over.
func checkResumedObs(t *testing.T, resumed, uninterrupted *obs.Registry) {
	t.Helper()
	snap := resumed.Snapshot()
	for _, name := range []string{"dns.cache.stripe00.hit", "dns.cache.stripe63.miss"} {
		if _, ok := snap.Counters[name]; ok {
			t.Errorf("resumed registry restored retired counter %s", name)
		}
	}
	for _, name := range []string{"dns.backoff_ns", "dns.attempts_per_query"} {
		if _, ok := snap.Histograms[name]; ok {
			t.Errorf("resumed registry restored retired histogram %s", name)
		}
	}
	if _, ok := snap.Counters["dns.backoff_ns"]; !ok {
		t.Error("resumed registry lacks the dns.backoff_ns counter")
	}
	if got, want := snap.Deterministic(), uninterrupted.Snapshot().Deterministic(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed deterministic metrics differ:\n got %v\nwant %v", got, want)
	}
}

// TestResumeRestoresOnlyPublishedMetrics resumes each campaign from
// checkpoints whose obs snapshot carries retired metrics: the resumed
// dump must lack them, keep every live metric cumulative, and the result
// must not change.
func TestResumeRestoresOnlyPublishedMetrics(t *testing.T) {
	t.Run("residual", func(t *testing.T) {
		cfg := resCfg{sites: 400, seed: 9001, weeks: 3, warmup: 14, incStart: 2, every: 7}
		want := obs.NewRegistry()
		r := cfg.build("", false, 0)
		r.Obs = want
		baseline := r.Run()

		dir := t.TempDir()
		killed := obs.NewRegistry()
		retiredMetrics(killed)
		r = cfg.build(dir, false, 3)
		r.Obs = killed
		r.Run()
		got := obs.NewRegistry()
		r = cfg.build(dir, true, 0)
		r.Obs = got
		diffResults(t, r.Run(), baseline)
		checkResumedObs(t, got, want)
	})
	t.Run("dynamics", func(t *testing.T) {
		cfg := dynCfg{sites: 300, seed: 83, days: 4, every: 1}
		want := obs.NewRegistry()
		d := cfg.build("", false, 0)
		d.Obs = want
		baseline := d.Run()

		dir := t.TempDir()
		killed := obs.NewRegistry()
		retiredMetrics(killed)
		d = cfg.build(dir, false, 2)
		d.Obs = killed
		d.Run()
		got := obs.NewRegistry()
		d = cfg.build(dir, true, 0)
		d.Obs = got
		diffResults(t, d.Run(), baseline)
		checkResumedObs(t, got, want)
	})
}
