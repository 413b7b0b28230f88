// Command dpsmeasure runs the paper's §IV usage-dynamics campaign over a
// simulated Internet: daily A/CNAME/NS collection, Table III status
// classification, Table IV behaviour detection, and the Table V
// JOIN/RESUME HTML verification. It prints the Fig. 2, Fig. 3, Fig. 5,
// Fig. 6, and Table V artifacts.
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

// runFollow is the -follow daemon: cmdutil.RunFollow appends days until
// SIGTERM/SIGINT or -max-days, printing a one-line summary per sealed
// day, then checkpoints; the result accumulated so far is the report.
// Every sealed day is immediately visible to `rrserve -follow` readers
// tailing the checkpoint directory.
func runFollow(cfg experiment.Dynamics, cf *cmdutil.CampaignFlags) experiment.DynamicsResult {
	en := cfg.NewEngine()
	defer en.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	cf.RunFollow("dpsmeasure", sig, func() {
		day := en.NextDay()
		en.AppendDay()
		fmt.Println(report.DynamicsProgress(day, en.WorldDay(), en.LastBreakdown(), en.DayCounts(day)))
	}, en.Checkpoint)
	return en.Result()
}

func main() {
	cf := cmdutil.RegisterCampaignFlags(flag.CommandLine, scenario.CampaignDynamics)
	flag.Parse()
	comp, err := cf.Compile()
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(2)
	}
	if cf.ValidateOnly {
		fmt.Printf("scenario %s ok (sha256:%s)\n", comp.Name(), comp.Hash())
		return
	}
	if comp.Info != nil {
		// Provenance goes to stderr so a scenario that reproduces the
		// default run keeps stdout byte-identical to it.
		fmt.Fprintf(os.Stderr, "dpsmeasure: scenario %s (sha256:%s)\n", comp.Name(), comp.Hash())
	}

	if cf.Resume {
		fmt.Fprintf(os.Stderr, "dpsmeasure: resuming campaign state from %s\n", cf.CheckpointDir)
	}

	reg := obs.NewRegistry()
	stopProfiles, err := cmdutil.StartProfiles(cf.PprofPrefix)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("building world: %d sites (seed %d)...\n", comp.World.NumSites, comp.World.Seed)
	start := time.Now()
	campaign := experiment.Dynamics{
		World:           world.New(comp.World),
		Days:            comp.Days,
		Workers:         cf.Workers,
		Policy:          &comp.Policy,
		Obs:             reg,
		SnapWindow:      cf.SnapWindow,
		CheckpointDir:   cf.CheckpointDir,
		CheckpointEvery: cf.CheckpointEvery,
		Resume:          cf.Resume,
		Scenario:        comp.Info,
	}
	var res experiment.DynamicsResult
	if cf.Follow {
		// Daemon mode has no horizon: -days is ignored, the engine
		// appends until SIGTERM or -max-days.
		campaign.Days = 0
		fmt.Printf("world ready in %v; following (SIGTERM to drain)...\n\n", time.Since(start).Round(time.Millisecond))
		res = runFollow(campaign, cf)
	} else {
		fmt.Printf("world ready in %v; running %d-day campaign...\n\n", time.Since(start).Round(time.Millisecond), comp.Days)
		res = campaign.Run()
	}

	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(1)
	}

	fmt.Println(res.String())
	fmt.Printf("retry policy: %s\n", comp.Policy)
	fmt.Println(report.FaultSummary(res.Stats, res.Sidelined))
	fmt.Println(report.Figure2(res))
	fmt.Println(report.Figure3(res))
	fmt.Println(report.Figure5(res))
	fmt.Println(report.Figure6(res))
	fmt.Println(report.TableV(res))

	if err := cmdutil.EmitMetrics(reg, cf.Metrics, cf.MetricsOut); err != nil {
		fmt.Fprintf(os.Stderr, "dpsmeasure: %v\n", err)
		os.Exit(1)
	}
}
