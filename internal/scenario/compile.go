package scenario

import (
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/netsim"
	"rrdps/internal/world"
)

// Compiled is a scenario lowered into the runtime configs the binaries
// otherwise assemble from flags. Compilation follows the binaries'
// construction exactly — world.PaperConfig overridden field by field,
// churn boost applied with each campaign kind's multiplication set — so
// an all-defaults spec reproduces a flag-driven default run
// byte-for-byte.
type Compiled struct {
	// Spec is the parsed source.
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
	// and reports.
	Info *experiment.ScenarioInfo
}

// Name returns the scenario name.
func (c *Compiled) Name() string { return c.Spec.Name() }

// Hash returns the canonical-form SHA-256 hex digest.
func (c *Compiled) Hash() string { return c.Spec.Hash }

// Compile lowers a parsed spec. It cannot fail: Parse already validated
// everything Compile consumes.
func Compile(s *Spec) *Compiled {
	doc := s.Doc
	c := doc.Campaign

	cfg := world.PaperConfig(c.Sites)
	cfg.Seed = *c.Seed

	// Churn boost replicates the binaries exactly: dpsmeasure multiplies
	// all four hazards, rrscan leaves PauseRate alone (pauses do not
	// create residual records, so the §V campaign only accelerates the
	// hazards that do).
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
		Spec:       s,
		Kind:       c.Kind,
		World:      cfg,
		Policy:     policy,
		Workers:    c.Workers,
		SnapWindow: c.SnapWindow,
		Info: &experiment.ScenarioInfo{
			Name:      doc.Metadata.Name,
			Hash:      s.Hash,
			Canonical: s.Canonical,
		},
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
