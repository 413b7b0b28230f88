package experiment

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rrdps/internal/netsim"
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
	randSeed int64
	faults   netsim.FaultConfig
}

func (c dynCfg) build(dir string, resume bool, stopAfter int) Dynamics {
	wc := dynamicsConfig(c.sites, c.seed)
	wc.Faults = c.faults
	d := Dynamics{
		World:           world.New(wc),
		Days:            c.days,
		Workers:         c.workers,
		CheckpointDir:   dir,
		CheckpointEvery: c.every,
		Resume:          resume,
		stopAfterDays:   stopAfter,
	}
	if c.longProb > 0 {
		d.LongIntervalProb = c.longProb
		d.Rand = rand.New(rand.NewSource(c.randSeed))
	}
	return d
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
	// The jitter Rand is consumed mid-campaign; resume must burn the
	// recorded number of draws from a fresh identically-seeded Rand.
	cfg := dynCfg{sites: 250, seed: 8107, days: 9, every: 2, longProb: 0.4, randSeed: 17}
	baseline := cfg.build("", false, 0).Run()
	for _, kill := range []int{1, 4, 7} {
		t.Run(fmt.Sprintf("kill-after-day-%d", kill), func(t *testing.T) {
			diffResults(t, cfg.killAndResume(t, t.TempDir(), kill), baseline)
		})
	}
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
	cur, err := decodeResidualCursor([]byte(`{"kind":"residual","next_week":3,"nameserver_count":8,` +
		`"ns_hosts_by_week":{"1":["ada.ns.cloudflare.com."],"2":["ada.ns.cloudflare.com.","bob.ns.cloudflare.com."]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cur.NextWeek != 3 || cur.NameserverCount != 8 {
		t.Fatalf("decoded next_week %d nameserver_count %d, want 3 and 8", cur.NextWeek, cur.NameserverCount)
	}
}
