package scenario

import (
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/netsim"
	"rrdps/internal/world"
)

// Compiled is a campaign shape lowered into runtime configs:
// world.PaperConfig overridden field by field, with the churn boost
// applied to each campaign kind's hazard set. Spec files (Compile) and
// the binaries' flags (Lower) both end here, so an all-defaults spec
// reproduces a flag-driven default run byte-for-byte.
type Compiled struct {
	// Spec is the parsed source; nil for a lowered flag set.
	Spec *Spec
	// Kind is CampaignDynamics or CampaignResidual.
	Kind string
	// World is the fully resolved world configuration.
	World world.Config
	// Policy is the campaign clients' retry policy.
	Policy dnsresolver.Policy
	// Days is the dynamics horizon (zero for residual).
	Days int
	// Weeks / WarmupDays / IncapsulaStartWeek are the residual horizon
	// (zero for dynamics).
	Weeks              int
	WarmupDays         int
	IncapsulaStartWeek int
	// Workers / SnapWindow are spec-pinned runtime knobs; zero means the
	// spec left them to the binary's flag defaults.
	Workers    int
	SnapWindow int
	// Attack is the residual reflection flood, nil when unconfigured.
	Attack *experiment.AttackLoad
	// Info is the provenance record campaigns thread into checkpoints
	// and reports; nil for a lowered flag set, whose checkpoints carry
	// no scenario.
	Info *experiment.ScenarioInfo
}

// Name returns the scenario name.
func (c *Compiled) Name() string { return c.Spec.Name() }

// Hash returns the canonical-form SHA-256 hex digest.
func (c *Compiled) Hash() string { return c.Spec.Hash }

// Compile lowers a parsed spec. It cannot fail: Parse already validated
// everything Compile consumes.
func Compile(s *Spec) *Compiled {
	out := compile(s.Doc)
	out.Spec = s
	out.Info = &experiment.ScenarioInfo{
		Name:      s.Doc.Metadata.Name,
		Hash:      s.Hash,
		Canonical: s.Canonical,
	}
	return out
}

// Lower normalizes, validates and compiles a campaign shape built in
// code, such as the binaries' flags bound into Defaults(kind). Nil
// pointers take their defaults, but a zero size does not: a spec file
// omits a field to get its default, while a flag set to 0 is a mistake.
// The result has no Spec and no Info.
func Lower(c Campaign, r Resolver) (*Compiled, error) {
	if c.Sites == 0 || c.Days == 0 && c.Weeks == 0 || r.Retries == 0 {
		return nil, &Error{File: "flags", Msg: "sites, the campaign horizon and retries must be positive"}
	}
	doc := V1{Kind: KindScenario, Metadata: Metadata{Name: "flags"}, Campaign: c, Resolver: r}
	doc.normalize()
	if err := doc.validate(func(string, string) int { return 0 }, "flags"); err != nil {
		return nil, err
	}
	return compile(doc), nil
}

// compile lowers a normalized, validated document.
func compile(doc V1) *Compiled {
	c := doc.Campaign

	cfg := world.PaperConfig(c.Sites)
	cfg.Seed = *c.Seed

	// Dynamics multiplies all four hazards; residual leaves PauseRate
	// alone (pauses do not create residual records, so the §V campaign
	// only accelerates the hazards that do).
	boost := *c.ChurnBoost
	switch c.Kind {
	case CampaignDynamics:
		cfg.JoinRate *= boost
		cfg.LeaveRate *= boost
		cfg.PauseRate *= boost
		cfg.SwitchRate *= boost
	case CampaignResidual:
		cfg.LeaveRate *= boost
		cfg.SwitchRate *= boost
		cfg.JoinRate *= boost
	}

	if w := doc.World; w != nil {
		if w.NotifiedLeaveRate != nil {
			cfg.NotifiedLeaveRate = *w.NotifiedLeaveRate
		}
		if w.PaidPlanRate != nil {
			cfg.PaidPlanRate = *w.PaidPlanRate
		}
		if w.DecoyOnLeaveRate != nil {
			cfg.DecoyOnLeaveRate = *w.DecoyOnLeaveRate
		}
		if w.PurgeDelayFreeDays != nil {
			cfg.PurgeDelayFree = time.Duration(*w.PurgeDelayFreeDays) * 24 * time.Hour
		}
		if w.PurgeDelayPaidDays != nil {
			cfg.PurgeDelayPaid = time.Duration(*w.PurgeDelayPaidDays) * 24 * time.Hour
		}
		if rl := w.NSRateLimit; rl != nil {
			cfg.NSRateLimit = netsim.LimitConfig{
				Window:    time.Duration(rl.WindowHours) * time.Hour,
				PerSource: rl.PerSource,
				Capacity:  rl.Capacity,
			}
		}
	}

	if f := doc.Faults; f != nil {
		cfg.Faults = netsim.FaultConfig{
			Seed:        f.Seed,
			LossRate:    f.LossRate,
			BurstRate:   f.BurstRate,
			BurstWindow: time.Duration(f.BurstWindowHours) * time.Hour,
			BurstLoss:   f.BurstLoss,
			FlakyRate:   f.FlakyRate,
			FlakyLoss:   f.FlakyLoss,
			FlakyWindow: time.Duration(f.FlakyWindowHours) * time.Hour,
			CorruptRate: f.CorruptRate,
		}
	}

	for _, w := range doc.Waves {
		cfg.Waves = append(cfg.Waves, world.ChurnWave{
			StartDay:   w.StartDay,
			Days:       w.Days,
			JoinMult:   w.JoinMult,
			LeaveMult:  w.LeaveMult,
			PauseMult:  w.PauseMult,
			SwitchMult: w.SwitchMult,
		})
	}

	policy := dnsresolver.DefaultPolicy()
	policy.MaxAttempts = doc.Resolver.Retries
	policy.Hedge = *doc.Resolver.Hedge

	out := &Compiled{
		Kind:       c.Kind,
		World:      cfg,
		Policy:     policy,
		Workers:    c.Workers,
		SnapWindow: c.SnapWindow,
	}
	switch c.Kind {
	case CampaignDynamics:
		out.Days = c.Days
	case CampaignResidual:
		out.Weeks = c.Weeks
		out.WarmupDays = *c.WarmupDays
		out.IncapsulaStartWeek = c.IncapsulaStartWeek
	}
	if a := doc.Attack; a != nil {
		out.Attack = &experiment.AttackLoad{
			Bots:           a.Bots,
			RequestsPerBot: a.RequestsPerBot,
			Amplification:  a.Amplification,
			Resolvers:      a.Resolvers,
			StartWeek:      a.StartWeek,
		}
	}
	return out
}
