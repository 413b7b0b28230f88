// Command reportgen runs both measurement campaigns and writes the
// complete artifact bundle — every table and figure the paper reports,
// in text and CSV form — to a directory. Each campaign gets its own
// world of -sites sites: the §IV one at -seed, the §V one at -seed+1.
// Both are lowered through internal/scenario, so each world's churn
// boost follows its campaign's rule, as in dpsmeasure and rrscan.
//
//	go run ./cmd/reportgen -out ./artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/core/report"
	"rrdps/internal/scenario"
	"rrdps/internal/world"
)

func main() {
	dc, r := scenario.Defaults(scenario.CampaignDynamics)
	rc, _ := scenario.Defaults(scenario.CampaignResidual)
	flag.IntVar(&dc.Sites, "sites", 3000, "number of websites")
	flag.IntVar(&dc.Days, "days", dc.Days, "usage-dynamics campaign days")
	flag.IntVar(&rc.Weeks, "weeks", rc.Weeks, "residual-resolution scan weeks")
	flag.Int64Var(dc.Seed, "seed", *dc.Seed, "world seed")
	flag.Float64Var(dc.ChurnBoost, "churn-boost", 12, "behaviour hazard multiplier")
	out := flag.String("out", "artifacts", "output directory")
	flag.Parse()

	// The §V world: same population and boost, the next seed, and six
	// weeks of history before the first scan.
	rc.Sites, *rc.Seed, *rc.ChurnBoost, *rc.WarmupDays = dc.Sites, *dc.Seed+1, *dc.ChurnBoost, 42
	lower := func(c scenario.Campaign) *scenario.Compiled {
		comp, err := scenario.Lower(c, r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "reportgen: %v\n", err)
			os.Exit(2)
		}
		return comp
	}
	if err := run(lower(dc), lower(rc), *out); err != nil {
		fmt.Fprintf(os.Stderr, "reportgen: %v\n", err)
		os.Exit(1)
	}
}

func run(dc, rc *scenario.Compiled, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	start := time.Now()
	fmt.Printf("running %d-day dynamics campaign on %d sites...\n", dc.Days, dc.World.NumSites)
	dyn := experiment.Dynamics{World: world.New(dc.World), Days: dc.Days, Policy: &dc.Policy}.Run()

	fmt.Printf("running %d-week residual campaign...\n", rc.Weeks)
	w2 := world.New(rc.World)
	res := experiment.Residual{World: w2, Weeks: rc.Weeks, WarmupDays: rc.WarmupDays, Policy: &rc.Policy}.Run()

	files := map[string]string{
		"table2.txt":  report.TableII(),
		"table3.txt":  report.TableIII(),
		"table4.txt":  report.TableIV(),
		"figure2.txt": report.Figure2(dyn),
		"figure2.csv": report.Figure2CSV(dyn),
		"figure3.txt": report.Figure3(dyn),
		"figure3.csv": report.Figure3CSV(dyn),
		"figure5.txt": report.Figure5(dyn),
		"figure5.csv": report.Figure5CSV(dyn),
		"figure6.txt": report.Figure6(dyn),
		"table5.txt":  report.TableV(dyn),
		"table5.csv":  report.TableVCSV(dyn),
		"table6.txt":  report.TableVI(res),
		"table6.csv":  report.TableVICSV(res),
		"figure9.txt": report.Figure9(res),
		"figure9.csv": report.Figure9CSV(res),
	}
	if counts, ok := w2.Figure7Counts(); ok {
		files["figure7.txt"] = report.Figure7(counts)
	}

	for name, content := range files {
		if err := os.WriteFile(filepath.Join(out, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d artifacts to %s in %v\n", len(files), out, time.Since(start).Round(time.Millisecond))
	fmt.Println(dyn.String())
	fmt.Println(res.String())
	return nil
}
