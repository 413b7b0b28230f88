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

func main() {
	cf := cmdutil.RegisterCampaignFlags(flag.CommandLine, scenario.CampaignResidual)
	flag.Parse()
	comp, err := cf.Compile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rrscan: %v\n", err)
		os.Exit(2)
	}
	if cf.ValidateOnly {
		fmt.Printf("scenario %s ok (sha256:%s)\n", comp.Name(), comp.Hash())
		return
	}
	if comp.Info != nil {
		// Provenance goes to stderr so a scenario that reproduces a
		// flag-driven run keeps stdout byte-identical to it.
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

	fmt.Printf("building world: %d sites (seed %d)...\n", comp.World.NumSites, comp.World.Seed)
	start := time.Now()
	w := world.New(comp.World)
	campaign := experiment.Residual{
		World:              w,
		Weeks:              comp.Weeks,
		WarmupDays:         comp.WarmupDays,
		IncapsulaStartWeek: comp.IncapsulaStartWeek,
		Workers:            cf.Workers,
		Policy:             &comp.Policy,
		Obs:                reg,
		SnapWindow:         cf.SnapWindow,
		CheckpointDir:      cf.CheckpointDir,
		CheckpointEvery:    cf.CheckpointEvery,
		Resume:             cf.Resume,
		Scenario:           comp.Info,
		Attack:             comp.Attack,
	}
	var res experiment.ResidualResult
	if cf.Follow {
		// Daemon mode has no horizon: -weeks is ignored, the engine
		// appends rounds until SIGTERM or -max-days.
		campaign.Weeks = 0
		fmt.Printf("world ready in %v; following (SIGTERM to drain)...\n\n", time.Since(start).Round(time.Millisecond))
		res = runFollow(campaign, cf)
	} else {
		fmt.Printf("world ready in %v; running %d-week campaign...\n\n", time.Since(start).Round(time.Millisecond), comp.Weeks)
		res = campaign.Run()
	}
	fig7, _ := w.Figure7Counts()

	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "rrscan: %v\n", err)
		os.Exit(1)
	}

	fmt.Println(res.String())
	fmt.Printf("cloudflare NS-rerouting nameservers discovered: %d\n\n", res.NameserverCount)
	fmt.Printf("retry policy: %s\n", comp.Policy)
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
