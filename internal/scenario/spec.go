// Package scenario turns a campaign shape into runtime configs. A shape
// comes either from a versioned declarative spec — a JSON document
// describing a complete campaign: world shape, fault plan, churn waves,
// retry policy, campaign horizon, and optional attack load — or from
// the campaign binaries' flags, which Lower compiles through the same
// defaults, validation and compiler.
//
// Specs are versioned by apiVersion; rrdps/v1 is the only supported
// version. Parsing decodes a v1 document, applies defaults, validates,
// and re-encodes a canonical form whose SHA-256 hash identifies the
// scenario in campaign checkpoints and reports.
// Decoding is strict — unknown fields are rejected, with errors anchored
// to the offending line of the source file.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
)

// APIVersionV1 is the supported apiVersion; canonical forms are always v1.
const APIVersionV1 = "rrdps/v1"

// KindScenario is the only document kind.
const KindScenario = "Scenario"

// Campaign kinds.
const (
	CampaignDynamics = "dynamics"
	CampaignResidual = "residual"
)

// V1 is the spec document. All defaulted fields are pointers or
// omitempty values so a normalized document re-encodes without noise;
// Parse returns documents with defaults already applied.
type V1 struct {
	APIVersion string   `json:"apiVersion"`
	Kind       string   `json:"kind"`
	Metadata   Metadata `json:"metadata"`
	Campaign   Campaign `json:"campaign"`
	Resolver   Resolver `json:"resolver"`
	World      *World   `json:"world,omitempty"`
	Faults     *Faults  `json:"faults,omitempty"`
	Waves      []Wave   `json:"waves,omitempty"`
	Attack     *Attack  `json:"attack,omitempty"`
}

// Metadata names the scenario.
type Metadata struct {
	// Name identifies the scenario (kebab-case); it lands in campaign
	// provenance next to the spec hash.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
}

// Campaign selects the experiment and its horizon.
type Campaign struct {
	// Kind is "dynamics" (the §IV usage-dynamics campaign, cmd/dpsmeasure)
	// or "residual" (the §V residual-resolution campaign, cmd/rrscan).
	Kind string `json:"kind"`
	// Sites is the world population. Defaults to 2000.
	Sites int `json:"sites,omitempty"`
	// Seed is the world seed. Defaults to 1815.
	Seed *int64 `json:"seed,omitempty"`
	// Days is the dynamics horizon. Defaults to 42; invalid for residual.
	Days int `json:"days,omitempty"`
	// Weeks is the residual horizon. Defaults to 6; invalid for dynamics.
	Weeks int `json:"weeks,omitempty"`
	// WarmupDays ages the world before the first residual scan.
	// Defaults to 28; invalid for dynamics.
	WarmupDays *int `json:"warmupDays,omitempty"`
	// IncapsulaStartWeek delays the Incapsula case study (residual only);
	// 0 or 1 means every week.
	IncapsulaStartWeek int `json:"incapsulaStartWeek,omitempty"`
	// ChurnBoost multiplies the behaviour hazards (the binaries'
	// -churn-boost): all four for dynamics, leave/switch/join for
	// residual. Defaults to 1 for dynamics and 8 for residual.
	ChurnBoost *float64 `json:"churnBoost,omitempty"`
	// Workers pins the measurement-loop parallelism. Zero leaves the
	// choice to the binary (its -workers default); scenarios whose
	// results are arrival-order dependent (rate limits) pin it to 1.
	Workers int `json:"workers,omitempty"`
	// SnapWindow bounds snapshot retention; zero keeps the binary default.
	SnapWindow int `json:"snapWindow,omitempty"`
}

// Resolver shapes the retry policy of every campaign client.
type Resolver struct {
	// Retries is attempts per query. Defaults to 3.
	Retries int `json:"retries,omitempty"`
	// Hedge retries against an alternate nameserver. Defaults to true.
	Hedge *bool `json:"hedge,omitempty"`
}

// World overrides selected world.Config knobs over the paper-calibrated
// baseline. Absent fields keep their PaperConfig values.
type World struct {
	// NSRateLimit installs a response rate limiter on every provider
	// nameserver endpoint.
	NSRateLimit *RateLimit `json:"nsRateLimit,omitempty"`
	// NotifiedLeaveRate overrides the fraction of leavers that notify
	// their provider.
	NotifiedLeaveRate *float64 `json:"notifiedLeaveRate,omitempty"`
	// PaidPlanRate overrides the paid-plan fraction.
	PaidPlanRate *float64 `json:"paidPlanRate,omitempty"`
	// DecoyOnLeaveRate overrides the §VI-B.2 decoy countermeasure rate.
	DecoyOnLeaveRate *float64 `json:"decoyOnLeaveRate,omitempty"`
	// PurgeDelayFreeDays / PurgeDelayPaidDays override the providers'
	// residual-record lifetimes, in days.
	PurgeDelayFreeDays *int `json:"purgeDelayFreeDays,omitempty"`
	PurgeDelayPaidDays *int `json:"purgeDelayPaidDays,omitempty"`
}

// RateLimit is the spec form of netsim.LimitConfig.
type RateLimit struct {
	// WindowHours is the budget window. Defaults to 1 when either budget
	// is set.
	WindowHours int `json:"windowHours,omitempty"`
	// PerSource caps queries per source address per window (0 = no cap).
	PerSource int `json:"perSource,omitempty"`
	// Capacity caps total queries per window across sources (0 = no cap).
	Capacity int `json:"capacity,omitempty"`
}

// Faults is the spec form of netsim.FaultConfig; window durations are
// expressed in hours. Zero windows keep the fabric defaults.
type Faults struct {
	Seed             int64   `json:"seed,omitempty"`
	LossRate         float64 `json:"lossRate,omitempty"`
	BurstRate        float64 `json:"burstRate,omitempty"`
	BurstWindowHours int     `json:"burstWindowHours,omitempty"`
	BurstLoss        float64 `json:"burstLoss,omitempty"`
	FlakyRate        float64 `json:"flakyRate,omitempty"`
	FlakyLoss        float64 `json:"flakyLoss,omitempty"`
	FlakyWindowHours int     `json:"flakyWindowHours,omitempty"`
	CorruptRate      float64 `json:"corruptRate,omitempty"`
}

// Wave is the spec form of world.ChurnWave: a day-ranged burst of
// scaled behaviour hazards. Zero multipliers mean "unchanged".
type Wave struct {
	StartDay   int     `json:"startDay"`
	Days       int     `json:"days"`
	JoinMult   float64 `json:"joinMult,omitempty"`
	LeaveMult  float64 `json:"leaveMult,omitempty"`
	PauseMult  float64 `json:"pauseMult,omitempty"`
	SwitchMult float64 `json:"switchMult,omitempty"`
}

// Attack is the spec form of experiment.AttackLoad: a reflection flood
// against the scanned nameservers during residual scan weeks.
type Attack struct {
	Bots           int `json:"bots"`
	RequestsPerBot int `json:"requestsPerBot"`
	Amplification  int `json:"amplification"`
	Resolvers      int `json:"resolvers"`
	// StartWeek is the first attacked scan week (1-based); 0 = all weeks.
	StartWeek int `json:"startWeek,omitempty"`
}

// Spec is a parsed, defaulted, and validated scenario.
type Spec struct {
	// Doc is the normalized v1 document.
	Doc V1
	// Canonical is Doc's canonical encoding: indented JSON in struct
	// declaration order with defaults applied. Two specs with equal
	// canonical bytes describe the same scenario, whatever version or
	// formatting they were written in.
	Canonical []byte
	// Hash is the SHA-256 hex digest of Canonical.
	Hash string
}

// Name returns the spec's metadata.name.
func (s *Spec) Name() string { return s.Doc.Metadata.Name }

// canonicalize encodes doc in canonical form and hashes it.
func canonicalize(doc V1) ([]byte, string) {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// The document is a tree of plain values; this cannot fail.
		panic(fmt.Sprintf("scenario: canonical encode: %v", err))
	}
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	return b, hex.EncodeToString(sum[:])
}

// Defaults returns a campaign kind's default shape and retry policy:
// the value an absent spec field takes, and the default the campaign
// binaries register for the matching flag. The result is fully
// populated (no nil pointers) and its pointers are fresh, so a caller
// may bind flags to them.
func Defaults(kind string) (Campaign, Resolver) {
	seed, boost, hedge := int64(1815), 1.0, true
	c := Campaign{Kind: kind, Sites: 2000, Seed: &seed, ChurnBoost: &boost}
	switch kind {
	case CampaignDynamics:
		c.Days = 42
	case CampaignResidual:
		warmup := 28
		c.Weeks, c.WarmupDays, *c.ChurnBoost = 6, &warmup, 8
	}
	return c, Resolver{Retries: 3, Hedge: &hedge}
}

// normalize applies Defaults in place: zero sizes and nil pointers take
// the kind's default, and the other kind's horizon stays unset. Runs
// before validate, so validation sees the resolved document.
func (doc *V1) normalize() {
	d, dr := Defaults(doc.Campaign.Kind)
	c, r := &doc.Campaign, &doc.Resolver
	if c.Sites == 0 {
		c.Sites = d.Sites
	}
	if c.Seed == nil {
		c.Seed = d.Seed
	}
	if c.Days == 0 {
		c.Days = d.Days
	}
	if c.Weeks == 0 {
		c.Weeks = d.Weeks
	}
	if c.WarmupDays == nil {
		c.WarmupDays = d.WarmupDays
	}
	if c.ChurnBoost == nil {
		c.ChurnBoost = d.ChurnBoost
	}
	if r.Retries == 0 {
		r.Retries = dr.Retries
	}
	if r.Hedge == nil {
		r.Hedge = dr.Hedge
	}
	if doc.World != nil && doc.World.NSRateLimit != nil {
		rl := doc.World.NSRateLimit
		if rl.WindowHours == 0 && (rl.PerSource > 0 || rl.Capacity > 0) {
			rl.WindowHours = 1
		}
	}
}

// nameRE is the shape of a scenario name: kebab-case, like the file
// names under scenarios/.
var nameRE = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

// validate checks the normalized document, anchoring each finding to a
// source line via anchor (see fieldLine).
func (doc *V1) validate(anchor func(section, key string) int, file string) error {
	fail := func(section, key, msg string, args ...any) error {
		return &Error{File: file, Line: anchor(section, key), Msg: fmt.Sprintf(msg, args...)}
	}
	if doc.Kind != KindScenario {
		return fail("", "kind", "kind must be %q (got %q)", KindScenario, doc.Kind)
	}
	if doc.Metadata.Name == "" {
		return fail("metadata", "name", "metadata.name is required")
	}
	if !nameRE.MatchString(doc.Metadata.Name) {
		return fail("metadata", "name", "metadata.name %q must be kebab-case ([a-z0-9-])", doc.Metadata.Name)
	}

	c := doc.Campaign
	switch c.Kind {
	case CampaignDynamics:
		if c.Weeks != 0 {
			return fail("campaign", "weeks", "campaign.weeks is a residual knob; a dynamics campaign runs days")
		}
		if c.WarmupDays != nil {
			return fail("campaign", "warmupDays", "campaign.warmupDays is a residual knob")
		}
		if c.IncapsulaStartWeek != 0 {
			return fail("campaign", "incapsulaStartWeek", "campaign.incapsulaStartWeek is a residual knob")
		}
		if doc.Attack != nil {
			return fail("", "attack", "attack requires a residual campaign (the flood rides the weekly scans)")
		}
		if c.Days < 0 {
			return fail("campaign", "days", "campaign.days must be positive (got %d)", c.Days)
		}
	case CampaignResidual:
		if c.Days != 0 {
			return fail("campaign", "days", "campaign.days is a dynamics knob; a residual campaign runs weeks")
		}
		if c.Weeks < 0 {
			return fail("campaign", "weeks", "campaign.weeks must be positive (got %d)", c.Weeks)
		}
		if *c.WarmupDays < 0 {
			return fail("campaign", "warmupDays", "campaign.warmupDays must not be negative (got %d)", *c.WarmupDays)
		}
		if c.IncapsulaStartWeek < 0 || c.IncapsulaStartWeek > c.Weeks {
			return fail("campaign", "incapsulaStartWeek", "campaign.incapsulaStartWeek %d outside [0, weeks=%d]", c.IncapsulaStartWeek, c.Weeks)
		}
	default:
		return fail("campaign", "kind", "campaign.kind must be %q or %q (got %q)", CampaignDynamics, CampaignResidual, c.Kind)
	}
	if c.Sites < 0 {
		return fail("campaign", "sites", "campaign.sites must be positive (got %d)", c.Sites)
	}
	if *c.ChurnBoost <= 0 {
		return fail("campaign", "churnBoost", "campaign.churnBoost must be positive (got %v)", *c.ChurnBoost)
	}
	if c.Workers < 0 {
		return fail("campaign", "workers", "campaign.workers must not be negative (got %d)", c.Workers)
	}
	if doc.Resolver.Retries < 1 {
		return fail("resolver", "retries", "resolver.retries must be at least 1 (got %d)", doc.Resolver.Retries)
	}

	if w := doc.World; w != nil {
		for key, rate := range map[string]*float64{
			"notifiedLeaveRate": w.NotifiedLeaveRate,
			"paidPlanRate":      w.PaidPlanRate,
			"decoyOnLeaveRate":  w.DecoyOnLeaveRate,
		} {
			if rate != nil && (*rate < 0 || *rate > 1) {
				return fail("world", key, "world.%s %v outside [0,1]", key, *rate)
			}
		}
		for key, days := range map[string]*int{
			"purgeDelayFreeDays": w.PurgeDelayFreeDays,
			"purgeDelayPaidDays": w.PurgeDelayPaidDays,
		} {
			if days != nil && *days <= 0 {
				return fail("world", key, "world.%s must be positive (got %d)", key, *days)
			}
		}
		if rl := w.NSRateLimit; rl != nil {
			if rl.PerSource < 0 || rl.Capacity < 0 || rl.WindowHours < 0 {
				return fail("world", "nsRateLimit", "world.nsRateLimit budgets must not be negative (got %+v)", *rl)
			}
			if rl.PerSource == 0 && rl.Capacity == 0 {
				return fail("world", "nsRateLimit", "world.nsRateLimit needs perSource or capacity (an empty limiter is a no-op)")
			}
		}
	}

	if f := doc.Faults; f != nil {
		for key, rate := range map[string]float64{
			"lossRate":    f.LossRate,
			"burstRate":   f.BurstRate,
			"burstLoss":   f.BurstLoss,
			"flakyRate":   f.FlakyRate,
			"flakyLoss":   f.FlakyLoss,
			"corruptRate": f.CorruptRate,
		} {
			if rate < 0 || rate >= 1 {
				if rate != 0 {
					return fail("faults", key, "faults.%s %v outside [0,1)", key, rate)
				}
			}
		}
		if f.BurstWindowHours < 0 || f.FlakyWindowHours < 0 {
			return fail("faults", "burstWindowHours", "faults windows must not be negative")
		}
	}

	for i, wave := range doc.Waves {
		if wave.Days <= 0 {
			return fail("waves", "days", "waves[%d].days must be positive (got %d)", i, wave.Days)
		}
		if wave.StartDay < 0 {
			return fail("waves", "startDay", "waves[%d].startDay must not be negative (got %d)", i, wave.StartDay)
		}
		if wave.JoinMult < 0 || wave.LeaveMult < 0 || wave.PauseMult < 0 || wave.SwitchMult < 0 {
			return fail("waves", "days", "waves[%d] has a negative multiplier", i)
		}
		if wave.JoinMult == 0 && wave.LeaveMult == 0 && wave.PauseMult == 0 && wave.SwitchMult == 0 {
			return fail("waves", "days", "waves[%d] sets no multiplier (a wave of all zeroes is a no-op)", i)
		}
	}

	if a := doc.Attack; a != nil {
		if a.Bots <= 0 || a.RequestsPerBot <= 0 || a.Amplification <= 0 || a.Resolvers <= 0 {
			return fail("attack", "bots", "attack.bots, requestsPerBot, amplification, and resolvers must all be positive")
		}
		if a.StartWeek < 0 || a.StartWeek > doc.Campaign.Weeks {
			return fail("attack", "startWeek", "attack.startWeek %d outside [0, weeks=%d]", a.StartWeek, doc.Campaign.Weeks)
		}
	}
	return nil
}
