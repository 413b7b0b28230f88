// Command rrscan runs the paper's §V residual-resolution campaign: weekly
// direct scans of Cloudflare-style NS-hosting nameservers for every
// domain, weekly re-resolution of collected Incapsula CNAMEs, the Fig. 8
// filtering pipeline, and week-over-week exposure tracking. It prints the
// Table VI and Fig. 9 artifacts plus the Fig. 7 per-PoP load spread.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rrdps/internal/cmdutil"
	"rrdps/internal/core/experiment"
	"rrdps/internal/core/report"
	"rrdps/internal/dps"
	"rrdps/internal/netsim"
	"rrdps/internal/obs"
	"rrdps/internal/scenario"
	"rrdps/internal/world"
)

// runFollow is the -follow daemon: cmdutil.RunFollow appends collection
// rounds (warm-up steps, then scan weeks) until SIGTERM/SIGINT or
// -max-days, printing a one-line summary per sealed round, then
// checkpoints; the result accumulated so far is the report.
func runFollow(cfg experiment.Residual, cf *cmdutil.CampaignFlags) experiment.ResidualResult {
	en := cfg.NewEngine()
	defer en.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	cf.RunFollow("rrscan", sig, func() {
		en.AppendRound()
		fmt.Println(report.ResidualProgress(en.WorldDay(), en.Result()))
	}, en.Checkpoint)
	return en.Result()
}

// poolCounts reads the Fig. 7 per-PoP query counts of one Cloudflare pool
// nameserver out of a world.
func poolCounts(w *world.World) map[netsim.Region]uint64 {
	prov, ok := w.Provider(dps.Cloudflare)
	if !ok {
		return nil
	}
	pool := prov.NSPool()
	if len(pool) == 0 {
		return nil
	}
	addr, ok := prov.NSPoolAddr(pool[0])
	if !ok {
		return nil
	}
	return w.Net.QueryCounts(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS})
}

func main() {
	sites := flag.Int("sites", 2000, "number of websites")
	weeks := flag.Int("weeks", 6, "weekly scan rounds (the paper runs six)")
	seed := flag.Int64("seed", 1815, "world seed")
	boost := flag.Float64("churn-boost", 8, "multiply leave/switch hazards so a small world yields residual records")
	warmup := flag.Int("warmup", 28, "days of world history to simulate before the first scan")
	incStart := flag.Int("incapsula-start", 0, "first week (1-based, inclusive) the Incapsula CNAME re-resolution runs; 0 or 1 = every week (the paper covers its last three)")
	cf := cmdutil.RegisterCampaignFlags(flag.CommandLine,
		"snapshot-store retention in collection rounds: 0 = streaming default (1), <0 = keep every round replayable, >=1 = that many rounds")
	cf.ScenarioOwns("sites", "weeks", "seed", "churn-boost", "warmup", "incapsula-start")
	flag.Parse()
	if *sites <= 0 || *weeks <= 0 || *boost <= 0 {
		fmt.Fprintln(os.Stderr, "rrscan: -sites, -weeks, and -churn-boost must be positive")
		os.Exit(2)
	}
	if err := cf.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "rrscan: %v\n", err)
		os.Exit(2)
	}
	comp, err := cf.LoadScenario(scenario.CampaignResidual)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrscan: %v\n", err)
		os.Exit(2)
	}
	if cf.ValidateOnly {
		fmt.Printf("scenario %s ok (sha256:%s)\n", comp.Name(), comp.Hash())
		return
	}
	policy := cf.Policy()

	cfg := world.PaperConfig(*sites)
	cfg.Seed = *seed
	cfg.LeaveRate *= *boost
	cfg.SwitchRate *= *boost
	cfg.JoinRate *= *boost

	var scn *experiment.ScenarioInfo
	var attackLoad *experiment.AttackLoad
	if comp != nil {
		// The spec owns the experiment shape; mirror it into the locals
		// the announcement lines and campaign construction read. The
		// provenance line goes to stderr so a scenario that reproduces a
		// flag-driven run keeps stdout byte-identical to it.
		cfg = comp.World
		policy = comp.Policy
		*sites, *weeks, *seed = cfg.NumSites, comp.Weeks, cfg.Seed
		*warmup, *incStart = comp.WarmupDays, comp.IncapsulaStartWeek
		scn = comp.Info
		attackLoad = comp.Attack
		fmt.Fprintf(os.Stderr, "rrscan: scenario %s (sha256:%s)\n", comp.Name(), comp.Hash())
	}

	if cf.Resume {
		fmt.Fprintf(os.Stderr, "rrscan: resuming campaign state from %s\n", cf.CheckpointDir)
	}

	reg := obs.NewRegistry()
	stopProfiles, err := cmdutil.StartProfiles(cf.PprofPrefix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrscan: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("building world: %d sites (seed %d)...\n", *sites, *seed)
	start := time.Now()
	w := world.New(cfg)
	campaign := experiment.Residual{
		World:              w,
		Weeks:              *weeks,
		WarmupDays:         *warmup,
		IncapsulaStartWeek: *incStart,
		Workers:            cf.Workers,
		Policy:             &policy,
		Obs:                reg,
		SnapWindow:         cf.SnapWindow,
		CheckpointDir:      cf.CheckpointDir,
		CheckpointEvery:    cf.CheckpointEvery,
		Resume:             cf.Resume,
		Scenario:           scn,
		Attack:             attackLoad,
	}
	var res experiment.ResidualResult
	if cf.Follow {
		// Daemon mode has no horizon: -weeks is ignored, the engine
		// appends rounds until SIGTERM or -max-days.
		campaign.Weeks = 0
		fmt.Printf("world ready in %v; following (SIGTERM to drain)...\n\n", time.Since(start).Round(time.Millisecond))
		res = runFollow(campaign, cf)
	} else {
		fmt.Printf("world ready in %v; running %d-week campaign...\n\n", time.Since(start).Round(time.Millisecond), *weeks)
		res = campaign.Run()
	}
	fig7 := poolCounts(w)

	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "rrscan: %v\n", err)
		os.Exit(1)
	}

	fmt.Println(res.String())
	fmt.Printf("cloudflare NS-rerouting nameservers discovered: %d\n\n", res.NameserverCount)
	fmt.Printf("retry policy: %s\n", policy)
	fmt.Println(report.FaultSummary(res.Stats, res.Sidelined))
	fmt.Println(report.TableVI(res))
	fmt.Println(report.Figure9(res))

	// Fig. 7: per-PoP query counts of one Cloudflare pool nameserver.
	if len(fig7) > 0 {
		fmt.Println(report.Figure7(fig7))
	}

	if err := cmdutil.EmitMetrics(reg, cf.Metrics, cf.MetricsOut); err != nil {
		fmt.Fprintf(os.Stderr, "rrscan: %v\n", err)
		os.Exit(1)
	}
}
