package experiment

import (
	"encoding/json"
	"fmt"

	"rrdps/internal/core/collect"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/snapdisk"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// Campaign durability (see internal/snapdisk for the on-disk formats).
//
// A checkpointing campaign writes two things: a WAL day group per
// collection round (the round's records plus a footer holding the
// campaign cursor as of that round's end), and a full checkpoint —
// store state plus the same cursor — every CheckpointEvery world days.
// The invariant is that the durable state always equals
//
//	last full checkpoint + the sealed WAL day groups after it,
//
// so resume is: rebuild that state (snapdisk.Dir.Recover), adopt the
// last footer's cursor, rebuild the world to the cursor's day (the
// world is derived from config + seed, so advancing a fresh world is
// exact replay), and continue the loop. A crash mid-round leaves an
// unsealed WAL tail; replay drops it and the round is re-collected
// live, which is value-identical because the world is quiescent within
// a round and the resolver cache is purged at every pass start.
//
// The cursor carries cumulative QueryStats with SidelineEvents zeroed:
// sideline events live in the health trackers, whose restored event
// counters flow back in through the fresh clients' Stats() — adding the
// base and the post-resume stats then reproduces the uninterrupted
// run's totals exactly.

// defaultCheckpointEvery is the full-checkpoint cadence, in world days,
// when CheckpointEvery is left zero.
const defaultCheckpointEvery = 7

// roundLog is the durability shell both engines share: the live
// snapstore every collection round streams into and, with a
// CheckpointDir, the directory and WAL that make those rounds durable.
// An engine drives it open → start → (collect → seal)* → checkpoint →
// close; everything campaign-specific reaches it as a cursor blob.
type roundLog struct {
	store *snapstore.Store
	dir   *snapdisk.Dir // nil without a CheckpointDir
	wal   *snapdisk.WAL
	every int
	// lastCkpt is the world day of the newest full checkpoint this
	// process wrote, -1 before the first.
	lastCkpt int
	onSeal   func(*snapstore.View, []byte)
	// footer is the most recent sealed round's cursor blob; checkpoint
	// reuses it, so a forced checkpoint is byte-identical to the WAL
	// footer of the round it covers.
	footer []byte
	closed bool
}

// open sets up the store (retention bounded by window) and, with a
// directory, either clears it — a fresh campaign owns the directory, so
// stale state from an earlier run must not leak into this one's
// recovery — or, when resuming, recovers it. It returns the recovered
// cursor blob, nil when there was nothing to resume.
func (l *roundLog) open(dirPath string, every int, resume bool, window int, onSeal func(*snapstore.View, []byte)) []byte {
	l.store, l.lastCkpt, l.onSeal = snapstore.New(), -1, onSeal
	l.store.SetWindow(window)
	if dirPath == "" {
		return nil
	}
	l.every = every
	if l.every <= 0 {
		l.every = defaultCheckpointEvery
	}
	dir, err := snapdisk.OpenDir(dirPath)
	must(err)
	l.dir = dir
	if !resume {
		must(dir.Clear())
		return nil
	}
	store, blob, ok, err := dir.Recover(window)
	if err != nil {
		panic(fmt.Sprintf("experiment: recover: %v", err))
	}
	if !ok {
		return nil
	}
	l.store = store
	return blob
}

// start opens the WAL for this process's rounds. A resumed campaign
// first re-establishes the invariant with a fresh checkpoint of cursor —
// written before the WAL is truncated, so a crash in between cannot
// discard the sealed groups recovery replayed (it just resumes from the
// new checkpoint, skipping the stale groups). The truncate itself is
// needed because appending to a torn tail would bury sealed groups
// behind garbage.
func (l *roundLog) start(worldDay int, resumed bool, cursor func() []byte) {
	if l.dir == nil {
		return
	}
	if resumed {
		l.writeCheckpoint(worldDay, cursor())
	}
	wal, err := snapdisk.OpenWAL(l.dir.WALPath())
	must(err)
	if err := wal.Reset(); err != nil {
		wal.Close()
		must(err)
	}
	l.wal = wal
}

// collect streams one collection round into the store under the given
// day label — and, with a WAL, into a new day group alongside it.
func (l *roundLog) collect(day int, c *collect.Collector) {
	dw := l.store.BeginDay(day)
	put := dw.Put
	if l.wal != nil {
		if err := l.wal.BeginDay(day); err != nil {
			panic(fmt.Sprintf("experiment: wal begin day %d: %v", day, err))
		}
		put = func(rec collect.Record) {
			dw.Put(rec)
			if err := l.wal.Put(rec); err != nil {
				panic(fmt.Sprintf("experiment: wal put: %v", err))
			}
		}
	}
	c.CollectStream(day, put)
	dw.Seal()
}

// seal closes a round: it seals the WAL group with the round's cursor
// footer, writes a full checkpoint when the cadence is due, and
// publishes the round to the OnSeal hook. The cursor is only built when
// a WAL or the hook consumes it.
func (l *roundLog) seal(worldDay int, cursor func() []byte) {
	if l.wal == nil && l.onSeal == nil {
		return
	}
	l.footer = cursor()
	if l.wal != nil {
		must(l.wal.SealDay(l.footer))
		if l.lastCkpt < 0 || worldDay-l.lastCkpt >= l.every {
			l.checkpoint(worldDay)
		}
	}
	if l.onSeal != nil {
		l.onSeal(l.store.SealedView(), l.footer)
	}
}

// checkpoint writes a full checkpoint carrying the last sealed round's
// footer, then truncates the WAL it subsumes. It does nothing without a
// directory or before this process sealed a round: a resumed, already
// complete campaign must not rewrite its final checkpoint with a
// recomputed cursor.
func (l *roundLog) checkpoint(worldDay int) {
	if l.dir == nil || l.footer == nil {
		return
	}
	l.writeCheckpoint(worldDay, l.footer)
	must(l.wal.Reset())
}

func (l *roundLog) writeCheckpoint(worldDay int, footer []byte) {
	must(l.dir.WriteCheckpoint(worldDay, l.store.ExportState(), footer))
	l.lastCkpt = worldDay
}

// close releases the WAL handle. It does not checkpoint.
func (l *roundLog) close() {
	if l.closed {
		return
	}
	l.closed = true
	if l.wal != nil {
		l.wal.Close()
	}
}

// must panics on a durability failure: a campaign that can no longer
// write its state must not carry on as if it could.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
}

// cursorBase is the envelope both campaign cursors share: the kind tag
// and the process state a resumed run restores before its next round.
type cursorBase struct {
	Kind string `json:"kind"`
	// BaseStats is the campaign's cumulative accounting, SidelineEvents
	// zeroed (the restored health tracker carries those).
	BaseStats dnsresolver.QueryStats  `json:"base_stats"`
	Health    dnsresolver.HealthState `json:"health"`
	Obs       obs.Snapshot            `json:"obs"`
	// Net carries the fabric's per-endpoint accounting (Fig. 7); the
	// checkpointed rounds' queries never recur on resume, so the
	// counters must travel with the cursor.
	Net netsim.CountersState `json:"net"`
	// Scenario is the provenance of the scenario spec that configured
	// the campaign, nil for flag-driven runs.
	Scenario *ScenarioInfo `json:"scenario,omitempty"`
}

func (c *cursorBase) base() *cursorBase { return c }

// newCursorBase captures the shared process state. stats is the
// campaign's cumulative accounting: the stats inherited from the cursor
// this process resumed from plus its own, so the recorded figure stays
// cumulative across any number of crash/resume cycles.
func newCursorBase(kind string, stats dnsresolver.QueryStats, resolver *dnsresolver.Resolver, reg *obs.Registry, w *world.World, scn *ScenarioInfo) cursorBase {
	stats.SidelineEvents = 0
	return cursorBase{
		Kind:      kind,
		BaseStats: stats,
		Health:    resolver.Health().ExportState(),
		Obs:       reg.Snapshot(),
		Net:       w.Net.ExportCounters(),
		Scenario:  scn,
	}
}

// restore puts the shared process state back into a freshly set-up
// campaign: resolver health, observability counters, the world replayed
// to worldDay (the world is a pure function of config and seed, so
// advancing a fresh one reproduces the interrupted run's world exactly)
// and the fabric's counters.
func (c *cursorBase) restore(resolver *dnsresolver.Resolver, reg *obs.Registry, w *world.World, worldDay int) {
	resolver.Health().RestoreState(c.Health)
	reg.Restore(c.Obs)
	if worldDay < w.Day() {
		panic(fmt.Sprintf("experiment: resume world day %d behind current day %d — resume needs a fresh world built from the same config", worldDay, w.Day()))
	}
	w.AdvanceDays(worldDay - w.Day())
	must(w.Net.RestoreCounters(c.Net))
}

// dynamicsCursor is the Dynamics campaign state a footer or checkpoint
// carries beyond the store: the exported DynamicsState plus what only a
// resuming campaign needs.
type dynamicsCursor struct {
	cursorBase
	DynamicsState
	// RandDraws counts long-interval jitter draws so far; resume burns
	// as many from a fresh identically-seeded Rand.
	RandDraws int                               `json:"rand_draws"`
	Unchanged map[dps.ProviderKey]*UnchangedRow `json:"unchanged"`
}

// residualCursor is the Residual campaign's counterpart.
type residualCursor struct {
	cursorBase
	ResidualState
	WarmupRemaining int                   `json:"warmup_remaining"`
	CNAMELib        []rrscan.CNAMETargets `json:"cname_lib"`
	Scanner         rrscan.ScannerState   `json:"scanner"`
}

const (
	cursorKindDynamics = "dynamics"
	cursorKindResidual = "residual"
)

func encodeCursor(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("experiment: encode cursor: %v", err))
	}
	return b
}

// decodeCursor decodes a cursor blob that must be of the given kind.
func decodeCursor[C any, P interface {
	*C
	base() *cursorBase
}](b []byte, kind string) (C, error) {
	var cur C
	if err := json.Unmarshal(b, &cur); err != nil {
		return cur, fmt.Errorf("experiment: decode %s cursor: %w", kind, err)
	}
	if got := P(&cur).base().Kind; got != kind {
		return cur, fmt.Errorf("experiment: cursor kind %q, want %q", got, kind)
	}
	return cur, nil
}
