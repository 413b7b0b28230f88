package rrdps_test

import (
	"fmt"
	"strings"

	"rrdps"
	"rrdps/internal/alexa"
)

// ExampleNewWorld builds a small deterministic world and inspects its
// population.
func ExampleNewWorld() {
	cfg := rrdps.PaperConfig(300)
	cfg.Seed = 12345
	w := rrdps.NewWorld(cfg)

	adopted := 0
	for _, site := range w.Sites() {
		if key, _, _ := site.Provider(); key != "" {
			adopted++
		}
	}
	fmt.Printf("sites: %d\n", len(w.Sites()))
	fmt.Printf("initial adopters: %d\n", adopted)
	// Output:
	// sites: 300
	// initial adopters: 31
}

// ExampleNewSnapshotStore streams one collection day into a snapshot
// store and reads it back through a sealed view: a cursor replays the
// whole day in rank order, RecordAt and Rank are point reads.
func ExampleNewSnapshotStore() {
	cfg := rrdps.PaperConfig(100)
	cfg.Seed = 12345
	w := rrdps.NewWorld(cfg)
	var domains []alexa.Domain
	for _, site := range w.Sites() {
		domains = append(domains, site.Domain())
	}
	collector := rrdps.NewCollector(w.NewResolver(rrdps.VantageRegions()[0]), domains)

	store := rrdps.NewSnapshotStore()
	day := w.Day()
	dw := store.BeginDay(day)
	collector.CollectStream(day, dw.Put)
	dw.Seal()

	view := store.SealedView()
	n := 0
	for cur := view.Cursor(day); cur.Next(); {
		n++
	}
	apex := domains[0].Apex
	rec, live := view.RecordAt(apex, day)
	rank, _ := view.Rank(apex)
	fmt.Printf("day %d: %d records\n", day, n)
	fmt.Printf("%s: rank %d, live %v, resolved %v, %d NS hosts\n", apex, rank, live, rec.ResolveOK, len(rec.NSHosts))
	// Output:
	// day 0: 100 records
	// sonenet61.com: rank 1, live true, resolved true, 2 NS hosts
}

// ExampleProfiles lists which providers are vulnerable to residual
// resolution by policy.
func ExampleProfiles() {
	for _, p := range rrdps.Profiles() {
		if p.Residual() {
			fmt.Println(p.DisplayName)
		}
	}
	// Output:
	// Cloudflare
	// Incapsula
}

// ExamplePurgeTrial replays the paper's §V-A.3 controlled experiment.
func ExamplePurgeTrial() {
	cfg := rrdps.PaperConfig(150)
	cfg.Seed = 54321
	// Freeze background churn; the trial drives its own site.
	cfg.JoinRate, cfg.LeaveRate, cfg.PauseRate, cfg.SwitchRate = 0, 0, 0, 0
	cfg.UnprotectedIPChangeRate = 0
	w := rrdps.NewWorld(cfg)

	week, err := rrdps.PurgeTrial{
		World:    w,
		Provider: rrdps.Cloudflare,
		Plan:     rrdps.PlanFree,
	}.Run()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("residual record purged at week %d\n", week)
	// Output:
	// residual record purged at week 4
}

// ExampleLoadScenario loads a spec from the scenario library and
// compiles it onto the runtime configuration types.
func ExampleLoadScenario() {
	spec, err := rrdps.LoadScenario("scenarios/paper-baseline.json")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	comp := rrdps.CompileScenario(spec)
	fmt.Printf("scenario: %s\n", comp.Name())
	fmt.Printf("kind: %s\n", comp.Kind)
	fmt.Printf("sites: %d\n", comp.World.NumSites)
	fmt.Printf("days: %d\n", comp.Days)
	// Output:
	// scenario: paper-baseline
	// kind: dynamics
	// sites: 2000
	// days: 42
}

// ExampleParseName shows name normalization.
func ExampleParseName() {
	n, _ := rrdps.ParseName("WWW.Example.COM.")
	fmt.Println(n)
	// Output:
	// www.example.com
}

// ExampleDynamics runs both paper campaigns on one world and renders
// their reports: README's "Library use", at a scale that runs in
// seconds.
func ExampleDynamics() {
	cfg := rrdps.PaperConfig(1000) // calibrated world config
	cfg.LeaveRate *= 12            // brisk churn, so a short run finds residues
	cfg.SwitchRate *= 12
	w := rrdps.NewWorld(cfg) // deterministic simulated Internet

	dyn := rrdps.Dynamics{World: w, Days: 14}.Run() // §IV campaign
	fig3 := rrdps.RenderFigure3(dyn)                // daily behaviours
	csv := rrdps.TableVCSV(dyn)                     // CSV for plotting

	res := rrdps.Residual{World: w, Weeks: 2, WarmupDays: 28}.Run() // §V campaign
	table := rrdps.RenderTableVI(res)

	for _, line := range strings.Split(fig3+csv+table, "\n") {
		fmt.Println(strings.TrimRight(line, " ")) // as Output comments keep them
	}
	// Output:
	// Fig. 3 — daily usage behaviours (14 days)
	// Day      JOIN  LEAVE  PAUSE  RESUME  SWITCH
	// 1        0     1      0      0       1
	// 2        0     5      0      0       0
	// 3        1     0      0      0       1
	// 4        0     5      0      0       1
	// 5        0     1      1      0       0
	// 6        0     4      0      0       0
	// 7        0     1      0      0       0
	// 8        0     1      0      0       2
	// 9        1     5      0      0       0
	// 10       0     2      0      0       0
	// 11       0     2      0      0       0
	// 12       0     3      0      0       0
	// 13       0     1      0      1       1
	// avg/day  0.2   2.4    0.1    0.1     0.5
	// provider,join_resume,unchanged,pct
	// cloudflare,2,2,100.00
	// incapsula,1,0,0.00
	// total,3,2,66.67
	// Table VI — residual resolution in the wild
	//             Hidden Records  Verified Origins  Percentage
	// Cloudflare
	// Week 1      5               2                 40.0%
	// Week 2      3               2                 66.7%
	// Total       6               2                 33.3%
	// Incapsula
	// Week 1      0               0                 0.0%
	// Week 2      0               0                 0.0%
	// Total       0               0                 0.0%
}

// ExampleNewMetricsRegistry instruments a campaign and renders the
// registry: README's "Observability".
func ExampleNewMetricsRegistry() {
	w := rrdps.NewWorld(rrdps.PaperConfig(300))

	reg := rrdps.NewMetricsRegistry()
	rrdps.Residual{World: w, Weeks: 2, Obs: reg}.Run()
	out := rrdps.RenderObservability(reg.Dump())

	fmt.Println(strings.SplitN(out, "\n", 2)[0])
	// Output:
	// Observability summary
}
