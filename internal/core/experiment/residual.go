package experiment

import (
	"fmt"
	"net/netip"
	"sort"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/exposure"
	"rrdps/internal/core/filter"
	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/core/rrscan"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/world"
)

// WeeklyReport is one week's filtering result for one provider.
type WeeklyReport struct {
	Week   int
	Report filter.Report
}

// ResidualResult carries the §V campaign outputs: the per-week Table VI
// rows and Fig. 9 exposure timelines for both case studies.
type ResidualResult struct {
	// Weeks is the number of weekly scans performed.
	Weeks int
	// Cloudflare / Incapsula hold per-week reports.
	Cloudflare []WeeklyReport
	Incapsula  []WeeklyReport
	// CFExposure / IncExposure are the week-over-week trackers.
	CFExposure  *exposure.Tracker
	IncExposure *exposure.Tracker
	// NameserverCount is how many Cloudflare NS-rerouting nameservers the
	// scan discovered (the paper's 391) — the largest single week's count.
	NameserverCount int
	// Stats aggregates the campaign's resilience accounting: the shared
	// collector/filter resolver (counted once) plus every scan vantage
	// client.
	Stats dnsresolver.QueryStats
	// Sidelined lists the nameservers still sidelined by health tracking
	// when the campaign ended, across the resolver and vantage clients.
	Sidelined []netip.Addr
}

// Residual runs the §V residual-resolution campaign over a world:
// daily world advancement with periodic collection, plus weekly direct
// scans of Cloudflare's nameservers (6 weeks in the paper) and weekly
// re-resolution of Incapsula CNAMEs (3 weeks in the paper, here aligned to
// the same weekly cadence).
type Residual struct {
	World *world.World
	// Weeks is the number of weekly scan rounds.
	Weeks int
	// IncapsulaStartWeek is the first week (1-based) the Incapsula
	// re-resolution runs, delaying that case study (the paper's Incapsula
	// study covers the last three weeks). Zero or one starts at week 1.
	IncapsulaStartWeek int
	// WarmupDays advances the world before the first scan so the
	// population carries history (terminated customers, stale records),
	// as the real Internet does. Snapshots are still collected weekly
	// during warm-up so the CNAME library sees pre-scan customers.
	WarmupDays int
	// ProviderAudit enables the §VI-B.1 provider-side countermeasure:
	// every week Cloudflare and Incapsula audit their terminated
	// customers against public resolution and purge mismatches.
	ProviderAudit bool
	// Workers sets the parallelism of every measurement loop in the
	// campaign — collection, the direct scan, the CNAME re-resolution, and
	// the filter pipeline. Zero or one means serial. Results are
	// value-identical to a serial run: the world only advances between
	// measurement passes, and each pass fans out with deterministic
	// per-index assignment and ordered fan-in.
	Workers int
	// Policy overrides the retry policy installed on the campaign's
	// resolver and scan vantage clients. Nil means
	// dnsresolver.DefaultPolicy(): 3 attempts with backoff, hedging, and
	// nameserver health sidelining. Point it at a NoRetryPolicy value to
	// measure the unprotected baseline.
	Policy *dnsresolver.Policy
	// Obs, when non-nil, receives the campaign's metrics and phase spans:
	// stage counters from every component, dns.* resilience counters from
	// the shared resolver and each vantage client, and per-week spans.
	Obs *obs.Registry
	// SnapWindow bounds the streaming pipeline's snapshot retention, in
	// days (really: in collection rounds — the campaign collects once per
	// warm-up step and once per week). Zero keeps the default of 1: only
	// the current round's snapshot is ever read, so nothing older needs to
	// stay replayable. Negative retains every round.
	SnapWindow int
	// CheckpointDir, when non-empty, makes the campaign durable: a full
	// checkpoint (store + campaign cursor) is written every
	// CheckpointEvery world days, and each collection round in between
	// is logged to a write-ahead log in the directory — see
	// internal/snapdisk. Incompatible
	// with ProviderAudit (the audit mutates provider state through
	// queries that a rebuilt world cannot replay).
	CheckpointDir string
	// CheckpointEvery is the full-checkpoint cadence in world days.
	// Zero means 7 (one checkpoint per weekly round).
	CheckpointEvery int
	// Resume continues the campaign recorded in CheckpointDir instead of
	// starting over. The caller must supply a *fresh* World built from
	// the same config and seed as the interrupted run, and the same
	// campaign configuration; the resumed result is value-identical to
	// an uninterrupted run. With no state in CheckpointDir the campaign
	// simply starts from the beginning.
	Resume bool

	// Attack, when non-nil, runs a reflection flood against the scanned
	// provider's nameservers alongside each weekly scan — see AttackLoad.
	// Pair with world.Config.NSRateLimit to make the flood and the
	// scanner compete for the nameservers' response budget.
	Attack *AttackLoad

	// Scenario, when non-nil, records which declarative scenario spec
	// produced this campaign; it rides along into every checkpoint and
	// WAL footer so rrserve can answer "what scenario produced this
	// epoch". It does not influence the computation.
	Scenario *ScenarioInfo

	// stopAfterRounds, when positive, stops the campaign after that many
	// collection rounds (warm-up rounds count) and returns the partial
	// result — the test hook that simulates a kill at a round boundary.
	stopAfterRounds int
}

// Run executes the campaign. The world's clock advances Weeks*7 days.
//
// Each collection round streams into a delta-encoded snapstore.Store and
// a single cursor pass feeds every snapshot consumer (the Incapsula CNAME
// library and the week's nameserver discovery). The tests keep the
// original map-based pipeline as a reference (legacy_test.go), and
// TestStreamingMatchesLegacy pins the two value-identical.
//
// Run is the incremental engine driven to the configured horizon:
// NewEngine absorbs the persistence/recovery setup, each loop turn
// appends exactly one collection round (warm-up step or scan week), and
// a final forced checkpoint seals the campaign. Batch and daemon callers
// therefore share every line of per-round logic.
func (r Residual) Run() ResidualResult {
	if r.World == nil || r.Weeks <= 0 {
		panic("experiment: Residual requires World and positive Weeks")
	}
	en := r.NewEngine()
	defer en.Close()
	for en.warmupRemaining > 0 || en.nextWeek <= r.Weeks {
		// The final scan week checkpoints regardless of stopAfterRounds,
		// like the pre-engine pipeline's force flag.
		final := en.warmupRemaining == 0 && en.nextWeek == r.Weeks
		en.AppendRound()
		if r.stopAfterRounds > 0 && en.rounds >= r.stopAfterRounds && !final {
			return en.res // simulated kill; the partial result is not meaningful
		}
	}
	en.Checkpoint()
	return en.Result()
}

// residualEnv is the campaign's wiring: world, resolver, population and
// the measurement components.
type residualEnv struct {
	w         *world.World
	resolver  *dnsresolver.Resolver
	domains   []alexa.Domain
	collector *collect.Collector
	pipeline  *filter.Pipeline
	scanner   *rrscan.Scanner
	cnameLib  *rrscan.CNAMELibrary
	cfProfile dps.Profile
	attack    *attackEnv // reflection-flood infra, nil without AttackLoad
}

func (r Residual) setup() *residualEnv {
	w := r.World

	resolver := w.NewResolver(netsim.RegionOregon)
	domains := make([]alexa.Domain, 0, len(w.Sites()))
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
	}
	collector := collect.New(resolver, domains)
	matcher := match.New(w.Registry, dps.Profiles())
	verifier := htmlverify.New(w.NewHTTPClient(netsim.RegionOregon))
	pipeline := filter.New(matcher, resolver, verifier)

	var vantage []*dnsresolver.Client
	for _, region := range netsim.VantageRegions() {
		vantage = append(vantage, w.NewResolver(region).Client())
	}
	scanner := rrscan.NewScanner(vantage)
	cnameLib := rrscan.NewCNAMELibrary(dps.Incapsula, matcher)

	policy := dnsresolver.DefaultPolicy()
	if r.Policy != nil {
		policy = *r.Policy
	}
	resolver.SetPolicy(policy)
	scanner.SetPolicy(policy)

	if r.Workers > 1 {
		collector.SetWorkers(r.Workers)
		scanner.SetWorkers(r.Workers)
		cnameLib.SetWorkers(r.Workers)
		pipeline.SetWorkers(r.Workers)
	}

	if r.Obs != nil {
		collector.SetObserver(r.Obs)
		scanner.SetObserver(r.Obs)
		cnameLib.SetObserver(r.Obs)
		pipeline.SetObserver(r.Obs)
		r.Obs.Gauge("campaign.weeks").Set(int64(r.Weeks))
		r.Obs.Gauge("campaign.domains").Set(int64(len(domains)))
	}

	cfProfile, _ := dps.ProfileFor(dps.Cloudflare)
	e := &residualEnv{
		w:         w,
		resolver:  resolver,
		domains:   domains,
		collector: collector,
		pipeline:  pipeline,
		scanner:   scanner,
		cnameLib:  cnameLib,
		cfProfile: cfProfile,
	}
	r.setupAttack(e)
	return e
}

// audit runs the §VI-B.1 provider-side countermeasure when enabled.
func (r Residual) audit(e *residualEnv) {
	if !r.ProviderAudit {
		return
	}
	e.resolver.PurgeCache()
	auditLookup := func(name dnsmsg.Name) []netip.Addr {
		res, err := e.resolver.Resolve(name, dnsmsg.TypeA)
		if err != nil {
			return nil
		}
		return res.Addrs()
	}
	for _, key := range []dps.ProviderKey{dps.Cloudflare, dps.Incapsula} {
		if p, ok := e.w.Provider(key); ok {
			p.AuditTerminated(auditLookup)
		}
	}
}

// scanWeek runs the scan half of one weekly round: the Cloudflare direct
// scan + filter, and the Incapsula CNAME-library re-resolution + filter.
func (r Residual) scanWeek(res *ResidualResult, e *residualEnv, week int, nsAddrs []netip.Addr) {
	// Cloudflare case study: direct scan of all domains.
	scanned := e.scanner.ScanDirect(nsAddrs, e.domains)
	e.resolver.PurgeCache()
	cfReport := e.pipeline.Run(dps.Cloudflare, scanned)
	res.Cloudflare = append(res.Cloudflare, WeeklyReport{Week: week, Report: cfReport})
	res.CFExposure.AddWeek(week, cfReport)

	// Incapsula case study: re-resolve the CNAME library starting at
	// IncapsulaStartWeek itself. (This was `week >` for a while, which
	// silently skipped the named start week — with the paper's
	// "last three weeks of six" config that dropped a third of the
	// Incapsula observations.)
	if week >= r.IncapsulaStartWeek {
		incScanned := e.cnameLib.ResolveAll(e.resolver)
		incReport := e.pipeline.Run(dps.Incapsula, incScanned)
		res.Incapsula = append(res.Incapsula, WeeklyReport{Week: week, Report: incReport})
		res.IncExposure.AddWeek(week, incReport)
	}
}

// finish merges the campaign's resilience accounting: the collector,
// filter pipeline, CNAME library, and nameserver discovery all share one
// resolver; count it once, then add each scan vantage client. base is
// the accounting a resumed campaign inherited from before the restart
// (zero otherwise).
func (r Residual) finish(res *ResidualResult, e *residualEnv, base dnsresolver.QueryStats) {
	res.Stats = base.Add(e.resolver.Stats().Add(e.scanner.Stats()))
	res.Sidelined = mergeSidelined(e.resolver.Health().Sidelined(), e.scanner.Sidelined())
}

// window resolves SnapWindow for the streaming pipeline.
func (r Residual) window() int {
	switch {
	case r.SnapWindow < 0:
		return 0 // unbounded: keep every collection round replayable
	case r.SnapWindow < 1:
		return 1 // minimum: only the current round is ever read
	default:
		return r.SnapWindow
	}
}

// mergeSidelined unions sorted sideline lists, keeping the result sorted
// and duplicate-free.
func mergeSidelined(lists ...[]netip.Addr) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	for _, list := range lists {
		for _, addr := range list {
			if !seen[addr] {
				seen[addr] = true
				out = append(out, addr)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// TotalHidden returns the distinct hidden-record counts (Table VI totals).
func (r ResidualResult) TotalHidden() (cloudflare, incapsula int) {
	return r.CFExposure.TotalHidden(), r.IncExposure.TotalHidden()
}

// TotalVerified returns the distinct verified-origin counts.
func (r ResidualResult) TotalVerified() (cloudflare, incapsula int) {
	return r.CFExposure.TotalVerified(), r.IncExposure.TotalVerified()
}

// String renders a one-line summary.
func (r ResidualResult) String() string {
	ch, ih := r.TotalHidden()
	cv, iv := r.TotalVerified()
	return fmt.Sprintf("residual: %d weeks, cloudflare %d hidden/%d verified, incapsula %d hidden/%d verified",
		r.Weeks, ch, cv, ih, iv)
}
