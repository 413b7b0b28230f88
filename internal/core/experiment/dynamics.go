// Package experiment orchestrates the paper's two measurement campaigns
// over a simulated world: the six-week usage-dynamics study (§IV) and the
// residual-resolution-in-the-wild study (§V). The cmd/ binaries and the
// benchmark harness drive these runners to regenerate every table and
// figure.
package experiment

import (
	"fmt"
	"net/netip"

	"rrdps/internal/alexa"
	"rrdps/internal/core/behavior"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/htmlverify"
	"rrdps/internal/core/match"
	"rrdps/internal/core/status"
	"rrdps/internal/dethash"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// AdoptionBreakdown aggregates one day's classification into the Fig. 2
// numbers.
type AdoptionBreakdown struct {
	Day int
	// ByProvider counts adopters (ON or OFF, shared-IP suspects excluded)
	// per provider.
	ByProvider map[dps.ProviderKey]int
	// Total is the number of adopters.
	Total int
	// Population is the number of classified domains.
	Population int
	// TopAdopters / TopPopulation restrict to the top rank bucket (the
	// paper's top-10k equivalent).
	TopAdopters   int
	TopPopulation int
	// CloudflareNS / CloudflareCNAME split Cloudflare adopters by
	// rerouting (Fig. 6).
	CloudflareNS    int
	CloudflareCNAME int
}

// UnchangedRow is one provider's Table V row.
type UnchangedRow struct {
	Provider    dps.ProviderKey
	JoinResume  int
	IPUnchanged int
}

// DynamicsResult carries everything the §IV experiments report.
type DynamicsResult struct {
	Days int
	// Daily adoption breakdowns (Fig. 2 averages over these).
	Breakdowns []AdoptionBreakdown
	// Detections and pause windows from the behaviour tracker.
	Detections   []behavior.Detection
	PauseWindows []behavior.PauseWindow
	CountsByDay  map[int]map[behavior.Kind]int
	// Unchanged is the Table V data, keyed by provider.
	Unchanged map[dps.ProviderKey]*UnchangedRow
	// Stats is the collector resolver's resilience accounting for the
	// whole campaign.
	Stats dnsresolver.QueryStats
	// Sidelined lists the nameservers still sidelined by health tracking
	// when the campaign ended.
	Sidelined []netip.Addr
}

// AvgAdoptionRate returns the mean daily overall adoption rate.
func (r DynamicsResult) AvgAdoptionRate() float64 {
	if len(r.Breakdowns) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.Breakdowns {
		if b.Population > 0 {
			sum += float64(b.Total) / float64(b.Population)
		}
	}
	return sum / float64(len(r.Breakdowns))
}

// AvgTopAdoptionRate returns the mean daily adoption rate in the top rank
// bucket.
func (r DynamicsResult) AvgTopAdoptionRate() float64 {
	if len(r.Breakdowns) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.Breakdowns {
		if b.TopPopulation > 0 {
			sum += float64(b.TopAdopters) / float64(b.TopPopulation)
		}
	}
	return sum / float64(len(r.Breakdowns))
}

// AdoptionGrowth returns the change in overall adoption rate from the
// first to the last day — the paper observes +1.17% over its six weeks.
func (r DynamicsResult) AdoptionGrowth() float64 {
	if len(r.Breakdowns) < 2 {
		return 0
	}
	first, last := r.Breakdowns[0], r.Breakdowns[len(r.Breakdowns)-1]
	if first.Population == 0 || last.Population == 0 {
		return 0
	}
	return float64(last.Total)/float64(last.Population) - float64(first.Total)/float64(first.Population)
}

// AvgProviderShare returns provider key's mean share of adopters.
func (r DynamicsResult) AvgProviderShare(key dps.ProviderKey) float64 {
	if len(r.Breakdowns) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.Breakdowns {
		if b.Total > 0 {
			sum += float64(b.ByProvider[key]) / float64(b.Total)
		}
	}
	return sum / float64(len(r.Breakdowns))
}

// AvgPerDay returns the mean daily count of a behaviour kind.
func (r DynamicsResult) AvgPerDay(kind behavior.Kind) float64 {
	if r.Days <= 1 {
		return 0
	}
	total := 0
	for _, counts := range r.CountsByDay {
		total += counts[kind]
	}
	// Behaviours are detected from day 1 on (day 0 is the baseline).
	return float64(total) / float64(r.Days-1)
}

// TotalUnchangedRate returns Table V's bottom-line unchanged percentage.
func (r DynamicsResult) TotalUnchangedRate() (joinResume, unchanged int, rate float64) {
	for _, row := range r.Unchanged {
		joinResume += row.JoinResume
		unchanged += row.IPUnchanged
	}
	if joinResume > 0 {
		rate = float64(unchanged) / float64(joinResume)
	}
	return joinResume, unchanged, rate
}

// Dynamics runs the §IV usage-dynamics campaign: days daily snapshots with
// classification, behaviour tracking, and the Table V JOIN/RESUME HTML
// verification.
type Dynamics struct {
	World *world.World
	Days  int
	// LongIntervalProb makes some snapshot gaps two days instead of one,
	// modelling the paper's uneven 20-30h experiment intervals. Longer
	// gaps aggregate more behaviours into one diff — the spike
	// synchronization the paper observes in Fig. 3 — and can compress
	// reversed pairs (a PAUSE and RESUME inside one gap cancel out).
	// Which gaps are long is a function of the world seed and day.
	LongIntervalProb float64
	// Workers sets the daily collection parallelism. Zero or one means
	// serial; snapshots stay value-identical either way because the world
	// only advances between collection passes.
	Workers int
	// Policy overrides the retry policy installed on the collector's
	// resolver. Nil means dnsresolver.DefaultPolicy(); point it at a
	// NoRetryPolicy value to measure the unprotected baseline.
	Policy *dnsresolver.Policy
	// Obs, when non-nil, receives the campaign's metrics and phase spans:
	// stage counters from the collector and verifier, dns.* resilience
	// counters from the resolver, and per-day spans.
	Obs *obs.Registry
	// SnapWindow bounds the streaming pipeline's snapshot retention, in
	// days. Zero keeps the default of 2 — the current day plus the previous
	// day that DiffPairs and the Table V verification look back to — so
	// retained memory stays flat no matter how long the campaign runs.
	// Values below 2 are raised to 2; negative retains every day (useful
	// when the caller wants to replay the campaign afterwards).
	SnapWindow int
	// CheckpointDir, when non-empty, makes the campaign durable: a full
	// checkpoint (store + campaign cursor) is written every
	// CheckpointEvery world days, and each day in between is logged to a
	// write-ahead log in the directory — see internal/snapdisk.
	CheckpointDir string
	// CheckpointEvery is the full-checkpoint cadence in world days.
	// Zero means 7.
	CheckpointEvery int
	// Resume continues the campaign recorded in CheckpointDir instead of
	// starting over. The caller must supply a *fresh* World built from
	// the same config and seed as the interrupted run (the world replays
	// deterministically to the checkpointed day), and the same campaign
	// configuration. The resumed result is value-identical to an
	// uninterrupted run. With no state in CheckpointDir the campaign
	// simply starts from the beginning.
	Resume bool

	// Scenario, when non-nil, records which declarative scenario spec
	// produced this campaign; it rides along into every checkpoint and
	// WAL footer so rrserve can answer "what scenario produced this
	// epoch". It does not influence the computation.
	Scenario *ScenarioInfo

	// stopAfterDays, when positive, stops the campaign after that many
	// collected days and returns the partial result — the test hook that
	// simulates a kill at a day boundary.
	stopAfterDays int
}

// _multiCDNSubstrings identify multi-CDN front-end aliases in CNAME
// chains; the paper names Cedexis as the canonical example.
var _multiCDNSubstrings = []string{"cedexis"}

// DetectMultiCDNStream returns the apexes whose CNAME chains run through a
// multi-CDN front-end, reading a record stream (a snapstore cursor) one
// record at a time.
func DetectMultiCDNStream(src status.RecordSource) []dnsmsg.Name {
	var out []dnsmsg.Name
	for src.Next() {
		for _, target := range src.Record().CNAMEs {
			for _, sub := range _multiCDNSubstrings {
				if target.ContainsSubstring(sub) {
					out = append(out, src.Apex())
				}
			}
		}
	}
	return out
}

// Run executes the campaign. The world's clock advances Days days.
//
// Every day is collected straight into a delta-encoded snapstore.Store and
// consumed through a DiffPairs cursor, so retained memory is bounded by
// SnapWindow instead of growing with the campaign. The tests keep the
// original map-based pipeline as a reference (legacy_test.go), and
// TestStreamingMatchesLegacy pins the two value-identical.
//
// Run is the incremental engine driven to the configured horizon:
// NewEngine absorbs the persistence/recovery setup, each loop turn
// appends exactly one day, and a final forced checkpoint seals the
// campaign. Batch and daemon callers therefore share every line of
// per-day logic — the append≡batch equivalence suite leans on that.
func (d Dynamics) Run() DynamicsResult {
	if d.World == nil || d.Days <= 0 {
		panic("experiment: Dynamics requires World and positive Days")
	}
	en := d.NewEngine()
	defer en.Close()
	appended := 0
	for en.nextDay < d.Days {
		en.AppendDay()
		appended++
		if d.stopAfterDays > 0 && appended >= d.stopAfterDays && en.nextDay < d.Days {
			return en.res // simulated kill; the partial result is not meaningful
		}
	}
	en.Checkpoint()
	return en.Result()
}

// dynamicsEnv is the campaign's wiring: world, resolver, population and
// the measurement components.
type dynamicsEnv struct {
	w          *world.World
	resolver   *dnsresolver.Resolver
	domains    []alexa.Domain
	collector  *collect.Collector
	classifier *status.Classifier
	verifier   *htmlverify.Verifier
	topCut     int
}

func (d Dynamics) setup() *dynamicsEnv {
	w := d.World
	resolver := w.NewResolver(netsim.RegionOregon)
	domains := make([]alexa.Domain, 0, len(w.Sites()))
	for _, s := range w.Sites() {
		domains = append(domains, s.Domain())
	}
	collector := collect.New(resolver, domains)
	if d.Workers > 1 {
		collector.SetWorkers(d.Workers)
	}
	policy := dnsresolver.DefaultPolicy()
	if d.Policy != nil {
		policy = *d.Policy
	}
	resolver.SetPolicy(policy)
	matcher := match.New(w.Registry, dps.Profiles())
	verifier := htmlverify.New(w.NewHTTPClient(netsim.RegionOregon))
	if d.Obs != nil {
		collector.SetObserver(d.Obs)
		verifier.SetObserver(d.Obs)
		d.Obs.Gauge("campaign.days").Set(int64(d.Days))
		d.Obs.Gauge("campaign.domains").Set(int64(len(domains)))
	}
	// Domains with Rank <= topCut count toward the Fig. 2 top-bucket
	// numbers.
	topCut := len(domains) / 100
	if topCut < 1 {
		topCut = 1
	}
	return &dynamicsEnv{
		w:          w,
		resolver:   resolver,
		domains:    domains,
		collector:  collector,
		classifier: status.New(matcher),
		verifier:   verifier,
		topCut:     topCut,
	}
}

// advance moves the world to the next snapshot. Under LongIntervalProb
// the gap is sometimes two days; the draw hashes the world seed and the
// day the gap would skip, so a resumed campaign takes the same gaps
// without carrying any generator state.
func (d Dynamics) advance(w *world.World) {
	w.AdvanceDay()
	if d.LongIntervalProb <= 0 {
		return
	}
	h := dethash.Word(dethash.Word(dethash.Offset, uint64(w.Config().Seed)), uint64(w.Day()))
	if dethash.Unit(dethash.Mix(h)) < d.LongIntervalProb {
		w.AdvanceDay()
	}
}

// finish assembles the tracker's and resolver's campaign-end
// accounting. base is the accounting a resumed campaign inherited from
// before the restart (zero otherwise); the fresh resolver's stats add
// on top, reproducing the uninterrupted totals.
func (d Dynamics) finish(res *DynamicsResult, e *dynamicsEnv, tracker *behavior.Tracker, base dnsresolver.QueryStats) {
	res.Detections = tracker.Detections()
	res.PauseWindows = tracker.PauseWindows()
	res.CountsByDay = tracker.CountsByDay()
	res.Stats = base.Add(e.resolver.Stats())
	res.Sidelined = e.resolver.Health().Sidelined()
}

// window resolves SnapWindow for the streaming pipeline.
func (d Dynamics) window() int {
	switch {
	case d.SnapWindow < 0:
		return 0 // unbounded: keep every day replayable
	case d.SnapWindow < 2:
		return 2 // minimum: DiffPairs and Table V read one day back
	default:
		return d.SnapWindow
	}
}

// accum folds one classified record into the Fig. 2 counters. Every
// field is an order-independent sum, so the breakdown does not depend on
// the order records stream in.
func (b *AdoptionBreakdown) accum(rec collect.Record, adoption status.Adoption, topCut int) {
	b.Population++
	if rec.Domain.Rank <= topCut {
		b.TopPopulation++
	}
	if adoption.Status == status.StatusNone || adoption.SharedIPSuspect {
		return
	}
	b.Total++
	b.ByProvider[adoption.Provider]++
	if rec.Domain.Rank <= topCut {
		b.TopAdopters++
	}
	if adoption.Provider == dps.Cloudflare {
		switch adoption.Rerouting {
		case dps.ReroutingNS:
			b.CloudflareNS++
		case dps.ReroutingCNAME:
			b.CloudflareCNAME++
		}
	}
}

// verifyDetection implements the §IV-C.3 three-step IP1/IP2 procedure
// over a diff pair: the record versions on either side of the detected
// action, read straight off the snapstore diff stream. The provider's
// Table V row is created before the record lookups can bail.
func (d Dynamics) verifyDetection(res *DynamicsResult, verifier *htmlverify.Verifier, pr snapstore.Pair, det behavior.Detection) {
	provider := det.To
	row := res.Unchanged[provider]
	if row == nil {
		row = &UnchangedRow{Provider: provider}
		res.Unchanged[provider] = row
	}

	// IP1: the origin address observed before the action. For JOIN that is
	// the pre-join A record; for RESUME, the OFF-period A record (origin).
	if !pr.PrevOK || len(pr.Prev.Addrs) == 0 {
		return
	}
	ip1 := pr.Prev.Addrs[0]

	// IP2: the addresses answered after the action — DPS edges.
	if !pr.CurOK || len(pr.Cur.Addrs) == 0 {
		return
	}
	ip2 := pr.Cur.Addrs[0]

	row.JoinResume++
	if verifySame(verifier, det.Apex, ip2, ip1) {
		row.IPUnchanged++
	}
}

func verifySame(verifier *htmlverify.Verifier, apex dnsmsg.Name, ip2, ip1 netip.Addr) bool {
	return verifier.Verify(apex.Child("www"), ip2, ip1).Match
}

// String renders a one-line summary for logs.
func (r DynamicsResult) String() string {
	jr, un, rate := r.TotalUnchangedRate()
	return fmt.Sprintf("dynamics: %d days, %d detections, %d pause windows, unchanged %d/%d (%.1f%%)",
		r.Days, len(r.Detections), len(r.PauseWindows), un, jr, rate*100)
}
