// Command steady checks that the benchmark is steady enough for its own
// bounds. It runs every workload of BENCHMARK.json as two sets of runs of
// the same code, each run with its own seed, and prints per workload and
// end-to-end metric each set's median and quartiles, the spread within
// each set, the drift of the second median from the first, and the
// metric's bound. Run it through steady.sh from the repository root:
//
//	bash campaignbench/steady.sh -runs 10
//
// A metric passes when each set's quartile spread (the distance between
// the first and third quartile over the median) is within its bound and the second set's median is not worse than the
// first by more than the bound. It is "steady" when the spreads are also
// below a third of the bound. Every run's result line is kept in a JSON
// file so a set can be re-read with -from.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// numSets is how many sets of runs the check compares: a second set
// shows how far medians drift on unchanged code.
const numSets = 2

const (
	specFile = "BENCHMARK.json"
	// outFile keeps every run's result line; -from re-reads it.
	outFile = ".bench_build/campaignbench/steady.json"
)

type benchSpec struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is one run's parsed result line.
type runResult struct {
	Set      int    `json:"set"`
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	Host     string `json:"host"`
	Line     struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"line"`
}

func main() {
	runs := flag.Int("runs", 10, "runs per workload per set")
	from := flag.String("from", "", "re-read the runs saved in this file instead of running")
	flag.Parse()

	raw, err := os.ReadFile(specFile)
	if err != nil {
		fatal(err)
	}
	var b benchSpec
	if err := json.Unmarshal(raw, &b); err != nil {
		fatal(fmt.Errorf("parse %s: %w", specFile, err))
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}

	var results []runResult
	if *from != "" {
		raw, err := os.ReadFile(*from)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &results); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *from, err))
		}
	} else {
		// Set-major, and within a set the workloads alternate run by run,
		// so slow drift on the host lands on every workload alike. Set s
		// uses seeds s*1000+1 .. s*1000+runs.
		for s := 1; s <= numSets; s++ {
			for i := 1; i <= *runs; i++ {
				for _, name := range names {
					r, err := runOnce(b, name, s*1000+i)
					if err != nil {
						fatal(err)
					}
					r.Set = s
					results = append(results, r)
					fmt.Fprintf(os.Stderr, "set %d run %d %s seed %d correct=%v\n", s, i, name, r.Seed, r.Line.Correct)
				}
			}
		}
		saved, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(outFile, saved, 0o644); err != nil {
			fatal(err)
		}
	}
	ok := report(b, names, results)
	hostReport(results)
	if !ok {
		os.Exit(1)
	}
}

// hostReport prints, per set, how much CPU the hypervisor stole during
// the runs: the first thing to look at when a set is noisy.
func hostReport(results []runResult) {
	steal := map[int][]float64{}
	for _, r := range results {
		var h struct {
			Before int64 `json:"steal_ticks_before"`
			After  int64 `json:"steal_ticks_after"`
		}
		if json.Unmarshal([]byte(r.Host), &h) == nil && h.Before >= 0 {
			steal[r.Set] = append(steal[r.Set], float64(h.After-h.Before))
		}
	}
	for s := 1; s <= numSets; s++ {
		v := steal[s]
		if len(v) == 0 {
			continue
		}
		sort.Float64s(v)
		fmt.Printf("set %d: steal ticks per run median %.0f, max %.0f (of %d runs)\n", s, (v[(len(v)-1)/2]+v[len(v)/2])/2, v[len(v)-1], len(v))
	}
}

// runOnce runs the benchmark command for one workload and seed.
func runOnce(b benchSpec, workload string, seed int) (runResult, error) {
	r := runResult{Workload: workload, Seed: seed}
	args := append(append([]string(nil), b.Command[1:]...),
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(b.RunSeconds), "--trace", "0")
	cmd := exec.Command(b.Command[0], args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	if err != nil {
		return r, fmt.Errorf("%s seed %d: %w\n%s", workload, seed, err, stdout.String())
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "host ") {
			r.Host = strings.TrimPrefix(line, "host ")
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &r.Line); err != nil {
		return r, fmt.Errorf("%s seed %d: parse result line: %w", workload, seed, err)
	}
	if !r.Line.Correct {
		return r, fmt.Errorf("%s seed %d: output check failed\n%s", workload, seed, stdout.String())
	}
	fmt.Fprintf(os.Stderr, "  (%.0fs)\n", time.Since(start).Seconds())
	return r, nil
}

// report prints the per-metric table and returns whether every metric
// passes.
func report(b benchSpec, names []string, results []runResult) bool {
	ok := true
	fmt.Printf("%-11s %-17s %-32s %-32s %8s %6s  %s\n", "workload", "metric", "set 1: median [q1 q3] spread", "set 2: median [q1 q3] spread", "drift", "bound", "verdict")
	for _, name := range names {
		for _, m := range b.EndToEnd {
			var sets [numSets][]float64
			for _, r := range results {
				if mv, found := r.Line.Metrics[m.Name]; found && r.Workload == name && r.Set >= 1 && r.Set <= numSets {
					sets[r.Set-1] = append(sets[r.Set-1], mv.Value)
				}
			}
			verdict := "steady"
			var cells [numSets]string
			var medians [numSets]float64
			for i, vals := range sets {
				if len(vals) < 2 {
					cells[i] = "too few runs"
					verdict = "FAIL too few runs"
					continue
				}
				q1, med, q3 := quartiles(vals)
				spread := (q3 - q1) / med
				medians[i] = med
				cells[i] = fmt.Sprintf("%.4g [%.4g %.4g] %.1f%%", med, q1, q3, spread*100)
				switch {
				case spread > m.Bound:
					verdict = "FAIL spread"
				case spread > m.Bound/3 && verdict == "steady":
					verdict = "within bound, not steady"
				}
			}
			drift := math.NaN()
			if verdict != "FAIL too few runs" {
				// Positive drift means the second set is worse.
				drift = (medians[1] - medians[0]) / medians[0]
				if m.Better == "higher" {
					drift = -drift
				}
				if drift > m.Bound {
					verdict = "FAIL drift"
				}
			}
			if strings.HasPrefix(verdict, "FAIL") {
				ok = false
			}
			fmt.Printf("%-11s %-17s %-32s %-32s %7.1f%% %5.0f%%  %s\n", name, m.Name, cells[0], cells[1], drift*100, m.Bound*100, verdict)
		}
	}
	return ok
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) (exclusive method) and
// statistics.median compute them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), med, q(3)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "steady: %v\n", err)
	os.Exit(2)
}
