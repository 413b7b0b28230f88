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
// A checkpointing campaign makes each collection round durable with
// exactly one write when the round seals. When a full checkpoint is due
// (every CheckpointEvery world days; at the default cadence, every
// residual round) the round's write is that checkpoint: store state plus
// the campaign cursor as of the round's end, after which the WAL, whose
// groups it subsumes, is reset to its header. Otherwise the round's
// records and the same cursor, as its footer, go to the WAL as one day
// group. The invariant is that the durable state always equals
//
//	last full checkpoint + the sealed WAL day groups after it,
//
// so resume is: rebuild that state (snapdisk.Dir.Recover), adopt the
// last footer's cursor, rebuild the world to the cursor's day (the
// world is derived from config + seed, so advancing a fresh world is
// exact replay), and continue the loop. A crash mid-round, or before a
// due checkpoint's rename, leaves the previous durable state (plus at
// most an unsealed WAL tail, which replay drops) and the round is
// re-collected live. That is value-identical because the world is
// quiescent within a round and the resolver cache is purged at every
// pass start.
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
	// day and recs are the round collect streamed last, kept for seal
	// to log when no checkpoint is due. Records are immutable values.
	day  int
	recs []collect.Record
	// walGroups counts the day groups written since the WAL was last
	// reset; a checkpoint only needs to reset a WAL that holds some.
	walGroups int
	// footer is the most recent sealed round's cursor blob; checkpoint
	// reuses it, so a forced checkpoint is byte-identical to the one the
	// round's cadence wrote or would have written.
	footer []byte
	closed bool
}

// open sets up the store (retention bounded by window) and, with a
// directory, either clears it — a fresh campaign owns the directory, so
// stale state from an earlier run must not leak into this one's
// recovery — or, when resuming, recovers it. It returns the recovered
// cursor blob, nil when there was nothing to resume.
func (l *roundLog) open(dirPath string, every int, resume bool, window int) []byte {
	l.store, l.lastCkpt = snapstore.New(), -1
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
// day label. With a WAL it also keeps the round's records: whether they
// are logged is decided when the round seals.
func (l *roundLog) collect(day int, c *collect.Collector) {
	dw := l.store.BeginDay(day)
	put := dw.Put
	if l.wal != nil {
		clear(l.recs)
		l.day, l.recs = day, l.recs[:0]
		put = func(rec collect.Record) {
			dw.Put(rec)
			l.recs = append(l.recs, rec)
		}
	}
	c.CollectStream(day, put)
	dw.Seal()
}

// seal closes a round with one durable write: a full checkpoint when the
// cadence is due, otherwise a WAL day group of the round's records
// sealed with its cursor footer. The cursor is only built with a WAL.
// The decision waits for seal because a round's seal day (a Dynamics
// round's jitter) is only known once it has advanced the world.
func (l *roundLog) seal(worldDay int, cursor func() []byte) {
	if l.wal == nil {
		return
	}
	l.footer = cursor()
	if l.lastCkpt < 0 || worldDay-l.lastCkpt >= l.every {
		l.checkpoint(worldDay)
	} else {
		l.logRound()
	}
}

// logRound writes the collected round to the WAL as one sealed group.
func (l *roundLog) logRound() {
	if err := l.wal.BeginDay(l.day); err != nil {
		panic(fmt.Sprintf("experiment: wal begin day %d: %v", l.day, err))
	}
	for _, rec := range l.recs {
		if err := l.wal.Put(rec); err != nil {
			panic(fmt.Sprintf("experiment: wal put: %v", err))
		}
	}
	must(l.wal.SealDay(l.footer))
	l.walGroups++
}

// checkpoint writes a full checkpoint carrying the last sealed round's
// footer, then resets the WAL if it holds groups the checkpoint
// subsumes. It does nothing without a directory or before this process
// sealed a round: a resumed, already complete campaign must not rewrite
// its final checkpoint with a recomputed cursor.
func (l *roundLog) checkpoint(worldDay int) {
	if l.dir == nil || l.footer == nil {
		return
	}
	l.writeCheckpoint(worldDay, l.footer)
	if l.walGroups > 0 {
		must(l.wal.Reset())
		l.walGroups = 0
	}
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

// jsonList is the JSON array encoding of a list that only grows and
// whose elements never change once appended (a finished week's report
// or exposure state): each element is encoded once, on the first seal
// that sees it, so a round pays for the elements it adds rather than for
// the whole history.
type jsonList struct {
	enc []byte // "[" and the elements encoded so far, comma-separated
	n   int    // elements in enc
}

// update encodes the elements past the n the list has already seen;
// elem returns element i.
func (l *jsonList) update(n int, elem func(i int) any) {
	if n < l.n {
		panic(fmt.Sprintf("experiment: cursor list shrank from %d to %d elements", l.n, n))
	}
	if l.enc == nil {
		l.enc = []byte{'['}
	}
	for ; l.n < n; l.n++ {
		if l.n > 0 {
			l.enc = append(l.enc, ',')
		}
		l.enc = append(l.enc, encodeCursor(elem(l.n))...)
	}
}

// appendTo appends the list's encoding as json.Marshal writes it, which
// for a nil slice is null.
func (l *jsonList) appendTo(dst []byte, isNil bool) []byte {
	if isNil {
		return append(dst, "null"...)
	}
	return append(append(dst, l.enc...), ']')
}

// size is an upper bound on what appendTo appends.
func (l *jsonList) size() int { return len(l.enc) + len("null") }

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
