// Package shardrun is the sharded campaign driver: it partitions the apex
// population into N deterministic shards, runs each shard as a fully
// independent campaign — its own world replica, its own snapstore,
// day-level WAL, and checkpoint directory — and merges the per-shard
// results into one report.
//
// Shards run one at a time. Each shard already spreads its measurement
// loops over the campaign's Workers; running several shards at once
// would multiply the world replicas held in memory without finishing
// sooner (EXPERIMENTS.md, "Shard scheduling"). What sharding buys is
// independent durable state per shard: a crashed shard is re-driven
// alone (Only) from its own checkpoint directory.
//
// The design leans on two properties the earlier layers already
// guarantee. First, a world is a pure function of its config and seed,
// so every shard builds a value-identical world replica and advances it
// on the same schedule; shards never share mutable state, which lets
// each shard reuse the whole single-campaign durability machinery
// (checkpoints, WAL, crash/resume) unchanged. Second, shard assignment
// is a stable content hash of the apex alone (Assign), so the partition
// survives resumes, process restarts, and re-driving a subset of shards.
//
// The keystone identity — Merge(shard results) ≡ unsharded run, for
// every scientific artifact — is pinned by this package's equivalence
// suite across shard counts, fault plans, interval jitter, and
// single-shard crash/resume. The per-shard resilience accounting
// (Stats, Sidelined) is the documented exception: shared infrastructure
// queries are issued once per shard rather than once per campaign.
//
// One population-scale precondition applies to the residual campaign:
// each scan week's nameserver discovery (§V-A.2) is an observation over
// the shard's own population, so a shard needs at least one
// NS-rerouting customer among its apexes each week to find the fleet
// and scan at all. At paper scale — 1M apexes over any sane shard count
// — the condition is trivially satisfied; it only binds for toy
// populations of a few dozen apexes per shard.
package shardrun

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path/filepath"
	"sort"

	"rrdps/internal/alexa"
	"rrdps/internal/core/experiment"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/world"
)

// Assign returns apex's shard index in [0, shards): FNV-1a over the
// apex bytes, finalized with a splitmix64 mix (FNV alone is too linear
// in its low bits for clean modular reduction), reduced mod shards. A
// pure function of the apex and shard count — never of rank, insertion
// order, or worker scheduling — so assignment is stable across
// processes and resumes.
func Assign(apex dnsmsg.Name, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(apex))
	return int(mix64(h.Sum64()) % uint64(shards))
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// KeepFunc returns the membership predicate for one shard — the Keep
// filter handed to the shard's campaign. A single-shard layout returns
// nil (keep everything), so -shards 1 runs the exact unsharded
// campaign.
func KeepFunc(shard, shards int) func(alexa.Domain) bool {
	if shards <= 1 {
		return nil
	}
	return func(d alexa.Domain) bool { return Assign(d.Apex, shards) == shard }
}

// ShardDir returns shard i's checkpoint directory under root. Each
// shard owns its directory outright — snapstore checkpoints, WAL, and
// rotation files never mix across shards.
func ShardDir(root string, shard int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%04d", shard))
}

// runnable resolves which of shards execute this run, in index order:
// all of them, or those listed in only. A shard listed twice in only
// would run twice into the same checkpoint directory and be merged
// twice, so a duplicate panics like an out-of-range index.
func runnable(shards int, only []int) []int {
	if len(only) == 0 {
		out := make([]int, shards)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make(map[int]bool, len(only))
	for _, i := range only {
		if i < 0 || i >= shards {
			panic(fmt.Sprintf("shardrun: Only contains shard %d, want [0,%d)", i, shards))
		}
		if seen[i] {
			panic(fmt.Sprintf("shardrun: Only lists shard %d twice", i))
		}
		seen[i] = true
	}
	out := append([]int(nil), only...)
	sort.Ints(out)
	return out
}

// Dynamics drives the §IV usage-dynamics campaign across shards. Every
// per-campaign knob mirrors experiment.Dynamics; the driver fills in
// the per-shard wiring (world replica, Keep predicate, whole-population
// TopCut, per-shard checkpoint directory and obs registry).
type Dynamics struct {
	// Config builds each shard's world replica; Seed included. The
	// driver never holds a world of its own.
	Config world.Config
	Days   int
	// Shards is the partition width (>= 1).
	Shards int
	// Only restricts this run to the listed shards — the re-drive path
	// for an individual crashed shard. The returned PerShard slice keeps
	// length Shards with zero values at skipped indices, and Merged
	// covers only the shards run. Empty runs every shard.
	Only []int
	// Vantage / Excluded / KeepMultiCDN / LongIntervalProb mirror
	// experiment.Dynamics.
	Vantage          netsim.Region
	Excluded         []dnsmsg.Name
	KeepMultiCDN     bool
	LongIntervalProb float64
	// JitterSeed seeds each shard's interval-jitter Rand identically, so
	// every shard (and the unsharded baseline using the same seed) draws
	// the same gap schedule and the world replicas stay in lockstep.
	// Only meaningful with LongIntervalProb > 0.
	JitterSeed int64
	// Workers is the per-shard collection parallelism.
	Workers int
	Policy  *dnsresolver.Policy
	// Obs, when non-nil, receives the union of the shards' metrics:
	// each shard runs against its own registry and the merged snapshot
	// (obs.Snapshot.Merge) is restored into Obs after the run.
	Obs        *obs.Registry
	SnapWindow int
	// CheckpointDir is the sharded campaign's checkpoint root; shard i
	// persists under ShardDir(CheckpointDir, i). Empty disables
	// durability.
	CheckpointDir   string
	CheckpointEvery int
	// Resume resumes every shard from its own directory. Shards that
	// already completed recover their final cursor and return without
	// re-collecting; shards with no state start fresh — so resuming a
	// partially-dead fleet re-drives exactly the shards that need it.
	Resume bool
	// AfterShard, when non-nil, is called once for each completed shard,
	// in shard index order, while its world replica is still alive — the
	// hook for accounting that must be read off the fabric (e.g. summing
	// the Fig. 7 per-PoP query counters across replicas).
	AfterShard func(shard int, w *world.World)

	// StopShard / StopAfterDays simulate a kill of one shard's campaign
	// at a day boundary (the shardrun crash/resume test hook): shard
	// StopShard stops after StopAfterDays collected days while its
	// siblings run to completion. Inactive when StopAfterDays is zero.
	StopShard     int
	StopAfterDays int
}

// DynamicsRun is a sharded Dynamics outcome: the merged report plus the
// per-shard results it was merged from (index = shard).
type DynamicsRun struct {
	Merged   experiment.DynamicsResult
	PerShard []experiment.DynamicsResult
}

// Run executes the shard campaigns and merges their results.
func (s Dynamics) Run() DynamicsRun {
	if s.Shards < 1 {
		panic("shardrun: Dynamics requires Shards >= 1")
	}
	todo := runnable(s.Shards, s.Only)
	results := make([]experiment.DynamicsResult, s.Shards)
	regs := make([]*obs.Registry, s.Shards)
	for _, i := range todo {
		w := world.New(s.Config)
		d := experiment.Dynamics{
			World:           w,
			Days:            s.Days,
			Vantage:         s.Vantage,
			Excluded:        s.Excluded,
			KeepMultiCDN:    s.KeepMultiCDN,
			Workers:         s.Workers,
			Policy:          s.Policy,
			SnapWindow:      s.SnapWindow,
			Keep:            KeepFunc(i, s.Shards),
			TopCut:          wholePopulationTopCut(w),
			CheckpointEvery: s.CheckpointEvery,
			Resume:          s.Resume,
		}
		if s.Obs != nil {
			regs[i] = obs.NewRegistry()
			d.Obs = regs[i]
		}
		if s.CheckpointDir != "" {
			d.CheckpointDir = ShardDir(s.CheckpointDir, i)
		}
		if s.LongIntervalProb > 0 {
			d.LongIntervalProb = s.LongIntervalProb
			d.Rand = rand.New(rand.NewSource(s.JitterSeed))
		}
		if s.StopAfterDays > 0 && i == s.StopShard {
			d.StopAfterDays = s.StopAfterDays
		}
		results[i] = d.Run()
		if s.AfterShard != nil {
			s.AfterShard(i, w)
		}
	}
	out := DynamicsRun{PerShard: results}
	for _, i := range todo {
		out.Merged = out.Merged.Merge(results[i])
	}
	s.foldObs(regs)
	return out
}

// foldObs merges the per-shard registries into the caller's.
func (s Dynamics) foldObs(regs []*obs.Registry) {
	foldRegistries(s.Obs, regs)
}

func foldRegistries(dst *obs.Registry, regs []*obs.Registry) {
	if dst == nil {
		return
	}
	var merged obs.Snapshot
	for _, reg := range regs {
		if reg != nil {
			merged = merged.Merge(reg.Snapshot())
		}
	}
	dst.Restore(merged)
}

// wholePopulationTopCut reproduces the unsharded campaign's top rank
// bucket cutoff — population/100 over the WHOLE world, not the shard's
// slice — so per-shard breakdowns bucket identically to an unsharded
// run.
func wholePopulationTopCut(w *world.World) int {
	cut := len(w.Sites()) / 100
	if cut < 1 {
		cut = 1
	}
	return cut
}

// Residual drives the §V residual-resolution campaign across shards.
// Field semantics mirror Dynamics and experiment.Residual.
type Residual struct {
	Config             world.Config
	Weeks              int
	IncapsulaStartWeek int
	WarmupDays         int
	ProviderAudit      bool
	Shards             int
	Only               []int
	Workers            int
	Policy             *dnsresolver.Policy
	Obs                *obs.Registry
	SnapWindow         int
	CheckpointDir      string
	CheckpointEvery    int
	Resume             bool
	AfterShard         func(shard int, w *world.World)

	// StopShard / StopAfterRounds simulate a kill of one shard's
	// campaign at a round boundary. Inactive when StopAfterRounds is
	// zero.
	StopShard       int
	StopAfterRounds int
}

// ResidualRun is a sharded Residual outcome.
type ResidualRun struct {
	Merged   experiment.ResidualResult
	PerShard []experiment.ResidualResult
}

// Run executes the shard campaigns and merges their results.
func (s Residual) Run() ResidualRun {
	if s.Shards < 1 {
		panic("shardrun: Residual requires Shards >= 1")
	}
	todo := runnable(s.Shards, s.Only)
	results := make([]experiment.ResidualResult, s.Shards)
	regs := make([]*obs.Registry, s.Shards)
	for _, i := range todo {
		w := world.New(s.Config)
		r := experiment.Residual{
			World:              w,
			Weeks:              s.Weeks,
			IncapsulaStartWeek: s.IncapsulaStartWeek,
			WarmupDays:         s.WarmupDays,
			ProviderAudit:      s.ProviderAudit,
			Workers:            s.Workers,
			Policy:             s.Policy,
			SnapWindow:         s.SnapWindow,
			Keep:               KeepFunc(i, s.Shards),
			CheckpointEvery:    s.CheckpointEvery,
			Resume:             s.Resume,
		}
		if s.Obs != nil {
			regs[i] = obs.NewRegistry()
			r.Obs = regs[i]
		}
		if s.CheckpointDir != "" {
			r.CheckpointDir = ShardDir(s.CheckpointDir, i)
		}
		if s.StopAfterRounds > 0 && i == s.StopShard {
			r.StopAfterRounds = s.StopAfterRounds
		}
		results[i] = r.Run()
		if s.AfterShard != nil {
			s.AfterShard(i, w)
		}
	}
	out := ResidualRun{PerShard: results}
	for _, i := range todo {
		out.Merged = out.Merged.Merge(results[i])
	}
	foldRegistries(s.Obs, regs)
	return out
}
