// Package world composes the full simulated Internet: root and TLD DNS,
// a basic hosting provider, the eleven Table II DPS providers, and a ranked
// population of websites whose administrators churn through the paper's
// five usage behaviours day by day.
//
// The default configuration is calibrated to the paper's aggregates
// (§IV-§V); see DESIGN.md §5 for the mapping.
package world

import (
	"fmt"
	"time"

	"rrdps/internal/dps"
	"rrdps/internal/edge"
	"rrdps/internal/netsim"
)

// Config parametrizes a World. All stochastic rates are per-site-per-day
// hazards unless noted; they are population-size independent, so event
// counts scale linearly with NumSites like the paper's do with 1M.
type Config struct {
	// Seed drives all randomness; same seed, same world.
	Seed int64
	// NumSites is the ranked population size.
	NumSites int

	// AdoptionTopRate is the initial DPS adoption probability for the top
	// 1% of ranks (the paper's "top 10 thousand" of 1M: 38.98%).
	AdoptionTopRate float64
	// AdoptionOverallRate is the initial overall adoption (14.85%).
	AdoptionOverallRate float64

	// ProviderShares is each provider's share of DPS customers (Fig. 2);
	// values are normalized at build time.
	ProviderShares map[dps.ProviderKey]float64
	// CloudflareNSShare is the fraction of Cloudflare customers using
	// NS-based rerouting (Fig. 6: 89.95%).
	CloudflareNSShare float64
	// AkamaiAShare is the fraction of Akamai customers using A-based
	// rerouting (the remainder use CNAME).
	AkamaiAShare float64
	// PaidPlanRate is the fraction of customers on paid plans (longer
	// residual purge delays, §V-A.3).
	PaidPlanRate float64

	// Daily behaviour hazards (Fig. 3, scaled from the paper's per-day
	// counts at 1M sites: J=195, L=145, P=87, R=62, S=21).
	JoinRate   float64 // per unprotected site
	LeaveRate  float64 // per enrolled site
	PauseRate  float64 // per protected site of a pause-capable provider
	SwitchRate float64 // per enrolled site

	// Waves schedules day-ranged multipliers over the behaviour hazards —
	// the post-attack churn bursts of "No Time for Downtime" (Haq et
	// al.): an attack day makes customers switch or abandon providers at
	// elevated rates for a stretch of days. An empty list leaves every
	// hazard untouched and the world byte-identical to a wave-free one
	// (the per-site dice are rolled against the same effective rates in
	// the same order).
	Waves []ChurnWave

	// NotifiedLeaveRate is the probability a leaving/switching customer
	// explicitly informs the provider (footnote 10); only notified
	// terminations trigger the residual policy.
	NotifiedLeaveRate float64

	// SharedEdgesPerProvider adds edges with third-party (ISP) addresses
	// to Akamai and CDNetworks (footnote 6): customers landing on them
	// classify as OFF shared-IP suspects, which the pipeline eliminates.
	SharedEdgesPerProvider int

	// MultiCDNRate is the fraction of sites fronted by a Cedexis-style
	// multi-CDN service instead of a single DPS. Their provider flaps
	// daily; the paper excludes them from behaviour analysis (§IV-B.3).
	MultiCDNRate float64

	// DecoyOnLeaveRate is the fraction of leavers/switchers applying the
	// §VI-B.2 customer-side countermeasure: planting a fake origin record
	// before terminating, so residual answers point at a dead decoy.
	DecoyOnLeaveRate float64

	// UnchangedRates is, per provider, the probability a customer does NOT
	// change its origin IP after JOIN/RESUME (Table V).
	UnchangedRates map[dps.ProviderKey]float64

	// UnprotectedIPChangeRate is the daily hazard of an unprotected site
	// moving its origin to a fresh address (server migrations, hosting
	// changes). It is what turns residual records stale: a leaver whose
	// origin later moves leaves the previous DPS answering a dead address
	// — a hidden record that fails HTML verification (the ~75% unverified
	// mass in Table VI).
	UnprotectedIPChangeRate float64

	// OriginRestrictedRate is the fraction of enrolled origins that only
	// answer their provider's edges (defeats direct HTML verification).
	OriginRestrictedRate float64
	// DynamicMetaRate is the fraction of origins whose meta tags vary per
	// request (defeats naive HTML comparison).
	DynamicMetaRate float64

	// PurgeDelayFree / PurgeDelayPaid configure providers' residual-record
	// lifetimes.
	PurgeDelayFree time.Duration
	PurgeDelayPaid time.Duration

	// EdgesPerProvider / NameserversPerProvider size provider fleets. The
	// big NS-rerouting pool (Cloudflare's 391 nameservers) is scaled to
	// NameserversPerProvider.
	EdgesPerProvider       int
	NameserversPerProvider int

	// Faults installs the fabric's deterministic fault plan (seeded
	// uniform loss, burst windows, per-endpoint flakiness, reply
	// corruption). A zero Faults.Seed defaults to Seed+9 so the plan is
	// reproducible per world without extra configuration. Every decision
	// is a pure function of the send's content, independent of arrival
	// order, so serial and parallel runs, and resumed and uninterrupted
	// ones, see the same faults.
	Faults netsim.FaultConfig

	// Exposures sets the probability that a generated site carries each
	// Table I attack surface (see website.Exposure).
	Exposures ExposureRates

	// Scrubber, when set, is installed at every provider edge (the
	// scrubbing centers of §II-A.1). Nil admits all traffic; the DDoS
	// demo installs a rate-based scrubber here.
	Scrubber edge.Scrubber

	// NSRateLimit, when enabled, installs a response rate limiter on
	// every provider nameserver endpoint (the NS-hosting pools and the
	// infrastructure nameservers) — the Rizvi-style layered defense that
	// throttles a scanner hammering the fleet. The root/TLD backbone and
	// hosting nameservers stay unlimited.
	NSRateLimit netsim.LimitConfig
}

// ChurnWave is one scheduled burst of elevated (or damped) behaviour
// hazards: for world days in [StartDay, StartDay+Days) each non-zero
// multiplier scales its hazard. Zero multipliers mean "unchanged", so a
// wave can target just LEAVE/SWITCH without restating the others.
// Overlapping waves compound.
type ChurnWave struct {
	StartDay   int
	Days       int
	JoinMult   float64
	LeaveMult  float64
	PauseMult  float64
	SwitchMult float64
}

// active reports whether the wave covers world day d.
func (cw ChurnWave) active(d int) bool {
	return d >= cw.StartDay && d < cw.StartDay+cw.Days
}

// ExposureRates holds per-vector probabilities for site generation.
type ExposureRates struct {
	Subdomain     float64
	MailRecord    float64
	BodyLeak      float64
	SensitiveFile float64
	Certificate   float64
	Pingback      float64
}

// PaperConfig returns a configuration calibrated to the paper's reported
// aggregates, for a population of numSites.
func PaperConfig(numSites int) Config {
	return Config{
		Seed:                1815, // DSN'18 submission number, arbitrary
		NumSites:            numSites,
		AdoptionTopRate:     0.3898,
		AdoptionOverallRate: 0.1485,
		// Fig. 2: Cloudflare dominates (79% of DPS customers), Incapsula
		// 3.7%; the rest split the remainder with Akamai and Cloudfront
		// ahead.
		ProviderShares: map[dps.ProviderKey]float64{
			dps.Cloudflare: 0.790,
			dps.Incapsula:  0.037,
			dps.Akamai:     0.055,
			dps.Cloudfront: 0.058,
			dps.Fastly:     0.017,
			dps.CDN77:      0.006,
			dps.CDNetworks: 0.007,
			dps.DOSarrest:  0.006,
			dps.Edgecast:   0.009,
			dps.Limelight:  0.005,
			dps.Stackpath:  0.010,
		},
		CloudflareNSShare: 0.8995,
		AkamaiAShare:      0.5,
		PaidPlanRate:      0.12,

		// Hazards derived from Fig. 3's daily means over the relevant
		// sub-populations of the 1M-site study:
		//   joins:   195/day over ~851.5k unprotected  -> 2.29e-4
		//   leaves:  145/day over ~148.5k enrolled     -> 9.76e-4
		//   pauses:   87/day over ~122.7k CF+Incapsula -> 7.09e-4
		//   switches: 21/day over ~148.5k enrolled     -> 1.41e-4
		JoinRate:   2.29e-4,
		LeaveRate:  9.76e-4,
		PauseRate:  7.09e-4,
		SwitchRate: 1.41e-4,

		NotifiedLeaveRate: 0.75,

		// Table V origin-IP unchanged rates.
		UnchangedRates: map[dps.ProviderKey]float64{
			dps.Cloudflare: 0.595,
			dps.Akamai:     0.580,
			dps.Cloudfront: 0.350,
			dps.Incapsula:  0.634,
			dps.Fastly:     0.571,
			dps.Edgecast:   0.667,
			dps.CDNetworks: 0.739,
			dps.DOSarrest:  0.418,
			dps.Limelight:  0.667,
			dps.Stackpath:  0.725,
			dps.CDN77:      0.938,
		},

		UnprotectedIPChangeRate: 0.009,

		OriginRestrictedRate: 0.08,
		DynamicMetaRate:      0.05,
		MultiCDNRate:         0.004,

		PurgeDelayFree: 28 * 24 * time.Hour,
		PurgeDelayPaid: 70 * 24 * time.Hour,

		EdgesPerProvider:       6,
		NameserversPerProvider: 8,
		SharedEdgesPerProvider: 1,

		// Attack-surface rates roughly follow Vissers et al. (CCS'15),
		// who found >70% of CBSP-protected sites vulnerable to at least
		// one Table I vector.
		Exposures: ExposureRates{
			Subdomain:     0.25,
			MailRecord:    0.30,
			BodyLeak:      0.05,
			SensitiveFile: 0.08,
			Certificate:   0.30,
			Pingback:      0.10,
		},
	}
}

// validate panics on nonsensical configuration; the config is programmer
// input, not user input.
func (c Config) validate() {
	if c.NumSites <= 0 {
		panic(fmt.Sprintf("world: NumSites = %d", c.NumSites))
	}
	if c.AdoptionOverallRate < 0 || c.AdoptionOverallRate > 1 ||
		c.AdoptionTopRate < 0 || c.AdoptionTopRate > 1 {
		panic("world: adoption rates outside [0,1]")
	}
	if len(c.ProviderShares) == 0 {
		panic("world: no provider shares")
	}
	for key := range c.ProviderShares {
		if _, ok := dps.ProfileFor(key); !ok {
			panic(fmt.Sprintf("world: share for unknown provider %q", key))
		}
	}
	for i, wave := range c.Waves {
		if wave.Days <= 0 || wave.StartDay < 0 {
			panic(fmt.Sprintf("world: wave %d has StartDay %d, Days %d", i, wave.StartDay, wave.Days))
		}
		if wave.JoinMult < 0 || wave.LeaveMult < 0 || wave.PauseMult < 0 || wave.SwitchMult < 0 {
			panic(fmt.Sprintf("world: wave %d has a negative multiplier", i))
		}
	}
}

// restAdoptionRate computes the adoption probability for ranks outside the
// top 1% so that the overall rate matches AdoptionOverallRate.
func (c Config) restAdoptionRate() float64 {
	const topFrac = 0.01
	rest := (c.AdoptionOverallRate - c.AdoptionTopRate*topFrac) / (1 - topFrac)
	if rest < 0 {
		return 0
	}
	return rest
}

// topRankCutoff returns the highest rank (inclusive) considered "top" for
// adoption purposes: 1% of the population, the paper's 10k-of-1M.
func (c Config) topRankCutoff() int {
	cut := c.NumSites / 100
	if cut < 1 {
		cut = 1
	}
	return cut
}
