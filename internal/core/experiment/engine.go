package experiment

import (
	"bytes"
	"fmt"

	"rrdps/internal/core/behavior"
	"rrdps/internal/core/exposure"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/core/status"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/obs"
	"rrdps/internal/snapstore"
)

// The incremental engines.
//
// Run() computes a campaign in one batch shot; the engines expose the
// same campaign as a process: construct one, call AppendDay/AppendRound
// once per collection round, read Result whenever a consistent answer is
// needed, Checkpoint before a planned shutdown, Close when done. Run is
// itself implemented as "NewEngine + loop + Result", so the batch and
// incremental paths cannot drift — they are the same code, which is what
// the append≡batch equivalence suite (incremental_test.go) pins.
//
// The engines are what the -follow daemon mode in cmd/dpsmeasure and
// cmd/rrscan is built on: the campaign horizon (Days / Weeks) bounds
// Run, but an engine keeps appending past it for as long as the caller
// keeps calling — the simulated Internet keeps running, each sealed
// round lands in a checkpoint or the WAL, and a
// `rrserve -follow` reader picks it up within one poll.

// DynamicsEngine is the §IV usage-dynamics campaign as an incremental
// process: each AppendDay collects one day into the live snapstore,
// streams it through the one-pass DiffPairs machinery, and updates every
// artifact in place — the Fig. 2 breakdown, the behaviour FSM, the pause
// windows, and the Table V verification rows. Construct with
// Dynamics.NewEngine.
type DynamicsEngine struct {
	cfg Dynamics
	e   *dynamicsEnv
	log roundLog

	tracker   *behavior.Tracker // built after the first day (multi-CDN detection)
	adoptions map[dnsmsg.Name]status.Adoption
	res       DynamicsResult
	nextDay   int
	randDraws int
	baseStats dnsresolver.QueryStats
}

// NewEngine builds the campaign's incremental engine: full setup, and —
// with CheckpointDir + Resume — recovery of the on-disk state, exactly as
// Run would perform it. Days may be zero: an engine has no horizon of its
// own (Run's loop bound and the campaign.days gauge are the only
// consumers), so a daemon caller can keep appending indefinitely.
func (d Dynamics) NewEngine() *DynamicsEngine {
	if d.World == nil {
		panic("experiment: Dynamics engine requires World")
	}
	if d.Days < 0 {
		panic("experiment: Dynamics.Days must not be negative")
	}
	e := d.setup()
	en := &DynamicsEngine{
		cfg:       d,
		e:         e,
		adoptions: make(map[dnsmsg.Name]status.Adoption, len(e.domains)),
		res:       DynamicsResult{Days: d.Days, Unchanged: make(map[dps.ProviderKey]*UnchangedRow)},
	}
	blob := en.log.open(d.CheckpointDir, d.CheckpointEvery, d.Resume, d.window(), d.OnSeal)
	if blob != nil {
		en.restore(blob)
	}
	en.log.start(e.w.Day(), blob != nil, en.cursor)
	return en
}

// restore adopts a recovered cursor: the loop position, every
// accumulated artifact, and the process state the next day depends on.
func (en *DynamicsEngine) restore(blob []byte) {
	cur, err := decodeCursor[dynamicsCursor](blob, cursorKindDynamics)
	must(err)
	en.nextDay, en.randDraws, en.baseStats = cur.NextDay, cur.RandDraws, cur.BaseStats
	if cur.HaveTracker {
		en.tracker = behavior.RestoreTracker(cur.Tracker)
	}
	if cur.Adoptions != nil {
		en.adoptions = cur.Adoptions
	}
	en.res.Breakdowns = cur.Breakdowns
	if cur.Unchanged != nil {
		en.res.Unchanged = cur.Unchanged
	}
	cur.restore(en.e.resolver, en.cfg.Obs, en.e.w, cur.WorldDay)
	for i := 0; i < cur.RandDraws; i++ {
		en.cfg.Rand.Float64()
	}
}

// cursor encodes the campaign state after a completed day (nextDay is
// the next loop index to run).
func (en *DynamicsEngine) cursor() []byte {
	d, e := en.cfg, en.e
	cur := dynamicsCursor{
		cursorBase: newCursorBase(cursorKindDynamics, en.baseStats.Add(e.resolver.Stats()), e.resolver, d.Obs, e.w, d.Scenario),
		DynamicsState: DynamicsState{
			WorldDay:   e.w.Day(),
			NextDay:    en.nextDay,
			Adoptions:  en.adoptions,
			Breakdowns: en.res.Breakdowns,
		},
		RandDraws: en.randDraws,
		Unchanged: en.res.Unchanged,
	}
	if en.tracker != nil {
		cur.HaveTracker = true
		cur.Tracker = en.tracker.ExportState()
	}
	return encodeCursor(cur)
}

// NextDay returns the next collection-loop index — equivalently, how
// many days the campaign has collected so far (across every resume).
func (en *DynamicsEngine) NextDay() int { return en.nextDay }

// WorldDay returns the world clock (it can run ahead of NextDay under
// long-interval jitter).
func (en *DynamicsEngine) WorldDay() int { return en.e.w.Day() }

// DayCounts returns one appended day's detection counts per kind (see
// behavior.Tracker.DayCounts); nil before the first day.
func (en *DynamicsEngine) DayCounts(day int) map[behavior.Kind]int {
	if en.tracker == nil {
		return nil
	}
	return en.tracker.DayCounts(day)
}

// LastBreakdown returns the newest appended day's Fig. 2 breakdown, or
// the zero value before the first day.
func (en *DynamicsEngine) LastBreakdown() AdoptionBreakdown {
	if len(en.res.Breakdowns) == 0 {
		return AdoptionBreakdown{}
	}
	return en.res.Breakdowns[len(en.res.Breakdowns)-1]
}

// AppendDay collects and seals one day and folds it into every artifact
// in place: the day streams into the snapstore (and, when durable,
// seals as a checkpoint or a WAL group), one DiffPairs pass feeds the Fig. 2 breakdown, the
// classification cache, and the behaviour FSM, and the day's JOIN/RESUME
// detections are HTML-verified for Table V straight off the diff
// stream — only records that changed this day are ever re-verified. It
// returns the day's detections (the increment a daemon logs); the world
// then advances to the next snapshot.
func (en *DynamicsEngine) AppendDay() []behavior.Detection {
	if en.log.closed {
		panic("experiment: AppendDay on a closed engine")
	}
	d, e := en.cfg, en.e
	day := en.nextDay
	daySpan := d.Obs.Tracer().StartSpan("day", fmt.Sprintf("day %d", day))
	daySpan.SetItems(len(e.domains))
	en.log.collect(day, e.collector)

	if en.tracker == nil {
		var excluded []dnsmsg.Name
		if !d.KeepMultiCDN {
			excluded = DetectMultiCDNStream(en.log.store.Cursor(day))
		}
		en.tracker = behavior.NewTracker(excluded)
	}

	b := AdoptionBreakdown{Day: day, ByProvider: make(map[dps.ProviderKey]int)}
	// changed captures the day's churned pairs straight off the diff
	// stream. A JOIN/RESUME detection only ever lands on an apex whose
	// record changed this day — classification is a pure function of the
	// record, so an unchanged record reproduces yesterday's adoption and
	// the FSM sees no transition — so the Table V verification reads its
	// IP1/IP2 inputs from here instead of re-materializing either day.
	var changed map[dnsmsg.Name]snapstore.Pair
	if day > 0 {
		changed = make(map[dnsmsg.Name]snapstore.Pair)
	}
	en.tracker.BeginDay(day)
	for pairs := en.log.store.DiffPairs(day); pairs.Next(); {
		p := pairs.Pair()
		unchanged := p.Unchanged()
		if changed != nil && !unchanged {
			changed[p.Apex] = p
		}
		if !p.CurOK {
			delete(en.adoptions, p.Apex)
			continue
		}
		adoption, cached := en.adoptions[p.Apex]
		if !cached || !unchanged {
			adoption = e.classifier.Classify(p.Cur)
			en.adoptions[p.Apex] = adoption
		}
		b.accum(p.Cur, adoption, e.topCut)
		if p.Cur.ResolveOK && p.Cur.NSOK && !adoption.SharedIPSuspect {
			en.tracker.ObserveOne(p.Apex, adoption)
		}
	}
	detections := en.tracker.EndDay()
	en.res.Breakdowns = append(en.res.Breakdowns, b)

	// Table V: verify origin-IP hygiene for JOIN and RESUME (§IV-C.3
	// explicitly excludes SWITCH).
	for _, det := range detections {
		if det.Kind != behavior.Join && det.Kind != behavior.Resume {
			continue
		}
		if day == 0 {
			continue // no previous day yet, as with a nil prev snapshot
		}
		pr, ok := changed[det.Apex]
		if !ok {
			panic(fmt.Sprintf("experiment: day %d %v detection on %s without a record change", day, det.Kind, det.Apex))
		}
		d.verifyDetection(&en.res, e.verifier, pr, det)
	}

	en.randDraws += d.advance(e.w)
	en.nextDay = day + 1
	en.log.seal(e.w.Day(), en.cursor)
	daySpan.End()
	return detections
}

// Checkpoint forces a full checkpoint (store + cursor) and truncates the
// WAL, exactly like the batch run's campaign-end checkpoint — a follower
// or a later resume needs nothing but the directory. It reuses the last
// sealed round's footer, so the checkpoint is byte-identical to what
// that round's cadence checkpoint would have carried. A no-op without a
// CheckpointDir, or before the first round sealed by this process.
func (en *DynamicsEngine) Checkpoint() { en.log.checkpoint(en.e.w.Day()) }

// Result assembles the campaign result over everything appended so far:
// value-identical to a batch Run over the same number of days. The
// returned struct shares the engine's accumulating maps and slices, so
// read it before the next AppendDay or treat it as a snapshot that goes
// stale.
func (en *DynamicsEngine) Result() DynamicsResult {
	out := en.res
	out.Days = en.nextDay
	if en.tracker != nil {
		en.cfg.finish(&out, en.e, en.tracker, en.baseStats)
	} else {
		out.Stats = en.baseStats.Add(en.e.resolver.Stats())
		out.Sidelined = en.e.resolver.Health().Sidelined()
	}
	return out
}

// Close releases the engine's WAL handle. It does not checkpoint — call
// Checkpoint first for a clean shutdown; skipping it models a crash
// (the sealed WAL groups still resume exactly).
func (en *DynamicsEngine) Close() { en.log.close() }

// ResidualEngine is the §V residual-resolution campaign as an
// incremental process: each AppendRound is one collection round — a
// warm-up round while any warm-up days remain, then one weekly scan
// round (direct scan + filter + exposure fold) per call. Construct with
// Residual.NewEngine.
type ResidualEngine struct {
	cfg Residual
	e   *residualEnv
	log roundLog

	res             ResidualResult
	warmupRemaining int
	nextWeek        int
	rounds          int // rounds appended by this process
	baseStats       dnsresolver.QueryStats
	warmupSpan      *obs.Span
	// weekJSON caches the cursor's per-week lists, in ResidualState
	// order: Cloudflare, Incapsula, CFExposure, IncExposure.
	weekJSON [4]jsonList
}

// NewEngine builds the campaign's incremental engine; see
// Dynamics.NewEngine for the contract. Weeks may be zero — a daemon
// caller appends rounds for as long as it wants.
func (r Residual) NewEngine() *ResidualEngine {
	if r.World == nil {
		panic("experiment: Residual engine requires World")
	}
	if r.Weeks < 0 {
		panic("experiment: Residual.Weeks must not be negative")
	}
	if r.CheckpointDir != "" && r.ProviderAudit {
		panic("experiment: checkpointing is incompatible with ProviderAudit (audits mutate provider state a rebuilt world cannot replay)")
	}
	e := r.setup()
	en := &ResidualEngine{
		cfg: r,
		e:   e,
		res: ResidualResult{
			Weeks:       r.Weeks,
			CFExposure:  exposure.NewTracker(),
			IncExposure: exposure.NewTracker(),
		},
		warmupRemaining: r.WarmupDays,
		nextWeek:        1,
	}
	blob := en.log.open(r.CheckpointDir, r.CheckpointEvery, r.Resume, r.window(), r.OnSeal)
	if blob != nil {
		en.restore(blob)
	}
	en.log.start(e.w.Day(), blob != nil, en.cursor)
	if en.warmupRemaining > 0 {
		en.warmupSpan = r.Obs.Tracer().StartSpan("warmup", fmt.Sprintf("%d days", en.warmupRemaining))
	}
	return en
}

// restore adopts a recovered cursor; see DynamicsEngine.restore.
func (en *ResidualEngine) restore(blob []byte) {
	cur, err := decodeCursor[residualCursor](blob, cursorKindResidual)
	must(err)
	e := en.e
	en.warmupRemaining, en.nextWeek, en.baseStats = cur.WarmupRemaining, cur.NextWeek, cur.BaseStats
	en.res.NameserverCount = cur.NameserverCount
	en.res.Cloudflare, en.res.Incapsula = cur.Cloudflare, cur.Incapsula
	en.res.CFExposure = exposure.RestoreTracker(cur.CFExposure)
	en.res.IncExposure = exposure.RestoreTracker(cur.IncExposure)
	e.cnameLib.RestoreState(cur.CNAMELib)
	must(e.scanner.RestoreState(cur.Scanner))
	cur.restore(e.resolver, en.cfg.Obs, e.w, cur.WorldDay)
}

// cursor encodes the campaign state after a completed round.
// warmupRemaining is the warm-up still owed; nextWeek is the next week
// to run (Weeks+1 when the campaign is done).
//
// The result is byte-identical to encodeCursor of the full
// residualCursor, but the per-week lists, whose finished weeks never
// change, come from weekJSON: the rest of the cursor is encoded with
// them nil and the cached encodings are spliced in where their nulls
// sit.
func (en *ResidualEngine) cursor() []byte {
	head := encodeCursor(en.cursorFields())
	i := bytes.Index(head, []byte(residualListsNull))
	if i < 0 {
		panic("experiment: residual cursor without its per-week lists")
	}
	res := &en.res
	lists := &en.weekJSON
	lists[0].update(len(res.Cloudflare), func(i int) any { return res.Cloudflare[i] })
	lists[1].update(len(res.Incapsula), func(i int) any { return res.Incapsula[i] })
	lists[2].update(res.CFExposure.Weeks(), func(i int) any { return res.CFExposure.ExportWeek(i) })
	lists[3].update(res.IncExposure.Weeks(), func(i int) any { return res.IncExposure.ExportWeek(i) })
	isNil := [4]bool{res.Cloudflare == nil, res.Incapsula == nil}

	size := len(head)
	for _, l := range lists {
		size += l.size()
	}
	out := append(make([]byte, 0, size), head[:i]...)
	for k, key := range residualListKeys {
		if k > 0 {
			out = append(out, ',')
		}
		out = append(out, key...)
		out = lists[k].appendTo(out, isNil[k])
	}
	return append(out, head[i+len(residualListsNull):]...)
}

// residualListKeys / residualListsNull locate the per-week lists in an
// encoded residualCursor whose lists are nil. ResidualState declares the
// four next to each other, and the text cannot occur inside an encoded
// string, where every quote is escaped.
var residualListKeys = [4]string{`"cloudflare":`, `"incapsula":`, `"cf_exposure":`, `"inc_exposure":`}

const residualListsNull = `"cloudflare":null,"incapsula":null,"cf_exposure":null,"inc_exposure":null`

// cursorFields is the residual cursor without its per-week lists.
func (en *ResidualEngine) cursorFields() residualCursor {
	r, e := en.cfg, en.e
	return residualCursor{
		cursorBase: newCursorBase(cursorKindResidual, en.baseStats.Add(e.resolver.Stats().Add(e.scanner.Stats())), e.resolver, r.Obs, e.w, r.Scenario),
		ResidualState: ResidualState{
			WorldDay:        e.w.Day(),
			NextWeek:        en.nextWeek,
			NameserverCount: en.res.NameserverCount,
		},
		WarmupRemaining: en.warmupRemaining,
		CNAMELib:        e.cnameLib.ExportState(),
		Scanner:         e.scanner.ExportState(),
	}
}

// InWarmup reports whether the next AppendRound is a warm-up round.
func (en *ResidualEngine) InWarmup() bool { return en.warmupRemaining > 0 }

// NextWeek returns the next scan week (Weeks+1 once the configured
// horizon is done; it keeps counting past it under -follow).
func (en *ResidualEngine) NextWeek() int { return en.nextWeek }

// WorldDay returns the world clock.
func (en *ResidualEngine) WorldDay() int { return en.e.w.Day() }

// AppendRound runs one collection round and folds it into every artifact
// in place. During warm-up it collects and feeds the Incapsula CNAME
// library, then advances the world up to seven days; afterwards each
// call is one full scan week — provider audit, collection, nameserver
// discovery, the Cloudflare direct scan and Incapsula re-resolution
// through the Fig. 8 filter, and the week's exposure fold — followed by
// a week of world time.
func (en *ResidualEngine) AppendRound() {
	if en.log.closed {
		panic("experiment: AppendRound on a closed engine")
	}
	r, e, w := en.cfg, en.e, en.e.w
	if en.warmupRemaining > 0 {
		day := w.Day()
		en.log.collect(day, e.collector)
		for cur := en.log.store.Cursor(day); cur.Next(); {
			e.cnameLib.AddRecord(cur.Apex(), cur.Record())
		}
		en.warmupSpan.AddItems(len(e.domains))
		step := 7
		if en.warmupRemaining < step {
			step = en.warmupRemaining
		}
		w.AdvanceDays(step)
		en.warmupRemaining -= step
		en.rounds++
		en.log.seal(w.Day(), en.cursor)
		if en.warmupRemaining == 0 {
			en.warmupSpan.End()
			en.warmupSpan = nil
		}
		return
	}

	week := en.nextWeek
	weekSpan := r.Obs.Tracer().StartSpan("week", fmt.Sprintf("week %d", week))
	weekSpan.SetItems(len(e.domains))
	r.audit(e)
	// Collect at the start of the week; one cursor pass feeds both
	// snapshot consumers — the Incapsula CNAME library and the week's
	// fresh nameserver discovery.
	day := w.Day()
	en.log.collect(day, e.collector)
	disc := rrscan.NewNameserverDiscovery(e.cfProfile)
	for cur := en.log.store.Cursor(day); cur.Next(); {
		rec := cur.Record()
		e.cnameLib.AddRecord(cur.Apex(), rec)
		disc.AddRecord(rec)
	}
	nsHosts, nsAddrs := disc.Resolve(e.resolver)
	en.res.NameserverCount = max(en.res.NameserverCount, len(nsHosts))

	// The reflection flood (if configured) loads the fleet the scan is
	// about to hammer: collection and discovery above see a clean fabric,
	// so only the direct scan's recall is exposed to the attack.
	r.floodWeek(e, week, nsAddrs)
	r.scanWeek(&en.res, e, week, nsAddrs)

	// A week of usage dynamics between scans.
	w.AdvanceDays(7)
	en.nextWeek = week + 1
	en.rounds++
	en.log.seal(w.Day(), en.cursor)
	weekSpan.End()
}

// Checkpoint forces a full checkpoint; see DynamicsEngine.Checkpoint.
func (en *ResidualEngine) Checkpoint() { en.log.checkpoint(en.e.w.Day()) }

// Result assembles the campaign result over everything appended so far;
// Weeks is the number of completed scan weeks. See
// DynamicsEngine.Result for the sharing caveat.
func (en *ResidualEngine) Result() ResidualResult {
	out := en.res
	out.Weeks = en.nextWeek - 1
	en.cfg.finish(&out, en.e, en.baseStats)
	return out
}

// Close releases the engine's WAL handle; see DynamicsEngine.Close.
func (en *ResidualEngine) Close() { en.log.close() }
