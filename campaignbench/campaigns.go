package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/core/exposure"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/obs"
	"rrdps/internal/scenario"
	"rrdps/internal/serve"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

const (
	// paperBaseline is the shipped scenario dyn-daily runs (2000 sites,
	// churn x1); the benchmark replaces only its seed.
	paperBaseline = "scenarios/paper-baseline.json"
	// resSites, resChurn and resWarmup are the res-weekly world: the
	// rrscan defaults (churn x8, 28-day warm-up) at a population that
	// fits enough weeks into one run.
	resSites  = 3000
	resChurn  = 8
	resWarmup = 28
)

// env is what a workload's set-up receives: the seed, a scratch dir
// inside the checkout, and for a traced run the obs registry handed to
// the engines plus the sink for benchmark-side per-layer timings.
type env struct {
	seed   int64
	work   string
	reg    *obs.Registry // nil when untraced
	layers layers        // nil when untraced
}

// layers holds a traced run's per-layer values by metric name.
type layers map[string]float64

// timed runs f inside a benchmark span and, in a traced run, records its
// duration in milliseconds under metric.
func (e *env) timed(l *spanLog, name string, parent, op int64, metric string, f func()) {
	t := time.Now()
	l.call(name, parent, op, f)
	if e.layers != nil && metric != "" {
		e.layers[metric] += float64(time.Since(t)) / float64(time.Millisecond)
	}
}

// campaign is one of the paper's two measurement campaigns behind an
// incremental engine. step appends one day or scan week — the timed
// operation — and returns the domains it covered.
type campaign interface {
	step(l *spanLog, op int64) int
	// report renders Result().String(), the campaign report the traced
	// and untraced runs of one seed must agree on byte for byte.
	report(l *spanLog) string
	// finish runs the workload's output checks after the last step and
	// returns one error per failed check, plus the number of checks.
	finish(l *spanLog) (checks int, failed []error)
	stats() dnsresolver.QueryStats
	world() *world.World
	close()
}

// dynCampaign is the §IV usage-dynamics engine on the paper-baseline
// world, not durable, as dpsmeasure runs it.
type dynCampaign struct {
	e     *env
	w     *world.World
	en    *experiment.DynamicsEngine
	sites int
}

func setupDyn(e *env, l *spanLog) (campaign, error) {
	spec, err := scenario.Load(paperBaseline)
	if err != nil {
		return nil, err
	}
	comp := scenario.Compile(spec)
	cfg := comp.World
	cfg.Seed = e.seed
	policy := comp.Policy
	root := l.open("setup", 0, -1)
	defer l.close(root)
	c := &dynCampaign{e: e}
	e.timed(l, "world.New", root, -1, "world.build_ms", func() { c.w = world.New(cfg) })
	e.timed(l, "Dynamics.NewEngine", root, -1, "engine.new_ms", func() {
		c.en = experiment.Dynamics{
			World:   c.w,
			Workers: runtime.GOMAXPROCS(0),
			Policy:  &policy,
			Obs:     e.reg,
		}.NewEngine()
	})
	c.sites = len(c.w.Sites())
	l.call("AppendDay", root, -1, func() { c.en.AppendDay() }) // the cold day 0
	return c, nil
}

func (c *dynCampaign) step(l *spanLog, op int64) int {
	l.call("AppendDay", 0, op, func() { c.en.AppendDay() })
	return c.sites
}

func (c *dynCampaign) report(l *spanLog) string {
	return renderReport(c.e, l, func() fmt.Stringer { return c.en.Result() })
}

func (c *dynCampaign) finish(l *spanLog) (int, []error) {
	var res experiment.DynamicsResult
	l.call("Result", 0, -1, func() { res = c.en.Result() })
	if res.Days != c.en.NextDay() || len(res.Breakdowns) != res.Days {
		return 1, []error{fmt.Errorf("dyn-daily: result covers %d days with %d breakdowns, engine appended %d",
			res.Days, len(res.Breakdowns), c.en.NextDay())}
	}
	return 1, nil
}

func (c *dynCampaign) stats() dnsresolver.QueryStats { return c.en.Result().Stats }
func (c *dynCampaign) world() *world.World           { return c.w }
func (c *dynCampaign) close()                        { c.en.Close() }

// resCampaign is the §V residual engine at the rrscan defaults, durable
// as a -follow daemon runs it: a fresh checkpoint dir with the default
// cadence. The warm-up runs in set-up.
type resCampaign struct {
	e   *env
	w   *world.World
	en  *experiment.ResidualEngine
	dir string
}

func setupRes(e *env, l *spanLog) (campaign, error) {
	dir, err := os.MkdirTemp(e.work, "res-weekly-")
	if err != nil {
		return nil, err
	}
	c := &resCampaign{e: e, dir: dir}
	root := l.open("setup", 0, -1)
	defer l.close(root)
	cfg := residualWorld(resSites, e.seed)
	e.timed(l, "world.New", root, -1, "world.build_ms", func() { c.w = world.New(cfg) })
	e.timed(l, "Residual.NewEngine", root, -1, "engine.new_ms", func() {
		c.en = experiment.Residual{
			World:         c.w,
			WarmupDays:    resWarmup,
			Workers:       runtime.GOMAXPROCS(0),
			Obs:           e.reg,
			CheckpointDir: dir,
		}.NewEngine()
	})
	for c.en.InWarmup() {
		l.call("AppendRound", root, -1, func() { c.en.AppendRound() })
	}
	return c, nil
}

// residualWorld is the rrscan default world at the given size: churn x8
// on the leave, switch and join hazards.
func residualWorld(sites int, seed int64) world.Config {
	cfg := world.PaperConfig(sites)
	cfg.Seed = seed
	cfg.LeaveRate *= resChurn
	cfg.SwitchRate *= resChurn
	cfg.JoinRate *= resChurn
	return cfg
}

func (c *resCampaign) step(l *spanLog, op int64) int {
	l.call("AppendRound", 0, op, func() { c.en.AppendRound() })
	return resSites
}

func (c *resCampaign) report(l *spanLog) string {
	return renderReport(c.e, l, func() fmt.Stringer { return c.en.Result() })
}

// finish forces the final checkpoint, reloads the dir read-only through
// the lookup service's loader, and checks three things: the reload
// succeeds, the reloaded epoch is at the engine's world day, and it holds
// exactly the (non-zero) hidden records the engine found.
func (c *resCampaign) finish(l *spanLog) (int, []error) {
	var errs []error
	c.e.timed(l, "Checkpoint", 0, -1, "snapdisk.checkpoint_ms", func() { c.en.Checkpoint() })
	var src *serve.CheckpointSource
	var err error
	c.e.timed(l, "serve.OpenCheckpoint", 0, -1, "snapdisk.open_ms", func() { src, err = serve.OpenCheckpoint(c.dir) })
	if err != nil {
		return 3, []error{fmt.Errorf("res-weekly: reload checkpoint: %w", err)}
	}
	ep, _ := src.Epoch()
	if got, want := ep.State.WorldDay(), c.en.WorldDay(); got != want || src.Label() != want {
		errs = append(errs, fmt.Errorf("res-weekly: reloaded epoch at day %d (label %d), engine at day %d", got, src.Label(), want))
	}
	var res experiment.ResidualResult
	l.call("Result", 0, -1, func() { res = c.en.Result() })
	cf, inc := res.TotalHidden()
	reloaded := hiddenTotal(ep.State.Residual)
	if reloaded <= 0 || reloaded != cf+inc {
		errs = append(errs, fmt.Errorf("res-weekly: reloaded epoch holds %d hidden records, engine found %d", reloaded, cf+inc))
	}
	if c.e.layers != nil {
		size, err := dirMiB(c.dir)
		if err != nil {
			errs = append(errs, fmt.Errorf("res-weekly: size checkpoint dir: %w", err))
		}
		c.e.layers["snapdisk.dir_MiB"] = size
		c.e.layers.storeShape(ep.View.Stats())
	}
	return 3, errs
}

func (c *resCampaign) stats() dnsresolver.QueryStats { return c.en.Result().Stats }
func (c *resCampaign) world() *world.World           { return c.w }

func (c *resCampaign) close() {
	c.en.Close()
	os.RemoveAll(c.dir)
}

// hiddenTotal counts the distinct apexes with a hidden record in any
// week, per provider, as ResidualResult.TotalHidden does.
func hiddenTotal(st *experiment.ResidualState) int {
	if st == nil {
		return 0
	}
	return distinctHidden(st.CFExposure) + distinctHidden(st.IncExposure)
}

func distinctHidden(weeks []exposure.WeekState) int {
	seen := map[dnsmsg.Name]bool{}
	for _, w := range weeks {
		for _, apex := range w.Hidden {
			seen[apex] = true
		}
	}
	return len(seen)
}

// storeShape records the snapstore's shape as read from a reloaded epoch.
func (ls layers) storeShape(st snapstore.Stats) {
	if rounds := st.Days + st.EvictedDays; rounds > 0 {
		ls["snapstore.versions_per_round"] = float64(st.Versions) / float64(rounds)
	}
	ls["snapstore.interned_names"] = float64(st.InternedNames)
}

// renderReport times Result and its String rendering.
func renderReport(e *env, l *spanLog, result func() fmt.Stringer) string {
	var r fmt.Stringer
	var s string
	e.timed(l, "Result", 0, -1, "engine.result_ms", func() { r = result() })
	e.timed(l, "Result.String", 0, -1, "report.render_ms", func() { s = r.String() })
	return s
}
