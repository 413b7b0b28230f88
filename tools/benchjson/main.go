// Command benchjson converts `go test -bench` output into a
// machine-readable JSON report and compares two such reports for the CI
// bench gate. It is pure stdlib on purpose: the gate must not drag a
// dependency into a zero-dependency module.
//
// Parse mode (default) reads benchmark output on stdin and writes JSON:
//
//	go test -run='^$' -bench=Resolve -benchmem ./internal/dnsresolver | benchjson -o BENCH_resolve.json
//
// Repeated runs of one benchmark (-count=N) collapse to the best (minimum)
// value per metric, damping scheduler noise; allocs/op is deterministic,
// so min and max agree there. The -8 style GOMAXPROCS suffix is stripped
// from names so reports compare across machines with different core
// counts.
//
// Compare mode gates a fresh report against a committed baseline:
//
//	benchjson -compare -tol 0.10 BENCH_resolve.json fresh.json
//
// It fails (exit 1) when any baseline benchmark is missing from the fresh
// report, regresses allocs/op at all, or regresses ns/op by more than the
// tolerance band. Improvements and new benchmarks pass silently.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Report is the JSON shape of one benchmark run.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's best-of metrics. Metrics maps unit name
// (ns/op, B/op, allocs/op, plus any b.ReportMetric units like
// retained-B/domain-day) to value.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int                `json:"runs"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	var (
		out     = flag.String("o", "", "parse mode: write JSON here instead of stdout")
		compare = flag.Bool("compare", false, "compare mode: args are <baseline.json> <fresh.json>")
		tol     = flag.Float64("tol", 0.10, "compare mode: allowed fractional ns/op regression")
		gate    = flag.String("gate", defaultGate, "compare mode: regexp of benchmarks the gate fails on; others are informational")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare [-tol 0.10] [-gate regexp] <baseline.json> <fresh.json>")
			os.Exit(2)
		}
		gateRe, err := regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -gate:", err)
			os.Exit(2)
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *tol, gateRe); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parse reads `go test -bench` output and folds it into a Report.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	byName := map[string]*Benchmark{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			rep.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue
		}
		name := trimProcs(fields[0])
		b := byName[name]
		if b == nil {
			b = &Benchmark{Name: name, Metrics: map[string]float64{}}
			byName[name] = b
		}
		b.Runs++
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", line, fields[i])
			}
			unit := fields[i+1]
			if prev, ok := b.Metrics[unit]; !ok || v < prev {
				b.Metrics[unit] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.Benchmarks = append(rep.Benchmarks, *byName[n])
	}
	return rep, nil
}

// trimProcs strips the trailing -N GOMAXPROCS suffix from a benchmark
// name, leaving sub-benchmark paths intact.
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func load(path string) (map[string]Benchmark, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	out := make(map[string]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

// defaultGate is the hot-path set: the codec, resolver and
// authoritative-server benchmarks, plus the incremental engine's
// steady-state AppendDay — all single-threaded with deterministic
// allocs/op, so a hard gate holds.
// Campaign-scale benchmarks (Scan*, DynamicsMemory, DynamicsRun) run
// concurrent workers or churned worlds, so their allocs/op wobbles with
// scheduling — they are reported for trend-watching but never fail the
// build.
const defaultGate = `^Benchmark(Resolve|Exchange|Encode|Decode|ParseName|ServeNetBuf|AppendDay)`

// runCompare gates fresh against base. For gated benchmarks, a missing
// entry or any allocs/op regression fails outright and ns/op regressions
// fail past the tolerance; ungated benchmarks are informational.
func runCompare(basePath, freshPath string, tol float64, gate *regexp.Regexp) error {
	base, err := load(basePath)
	if err != nil {
		return err
	}
	fresh, err := load(freshPath)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(base))
	for n := range base {
		names = append(names, n)
	}
	sort.Strings(names)

	failures := 0
	for _, n := range names {
		b := base[n]
		gated := gate.MatchString(n)
		f, ok := fresh[n]
		if !ok {
			if gated {
				fmt.Printf("FAIL %-50s missing from fresh report\n", n)
				failures++
			} else {
				fmt.Printf("info %-50s missing from fresh report\n", n)
			}
			continue
		}
		status := "ok  "
		if !gated {
			status = "info"
		}
		var notes []string
		fail := false
		if bn, fn := b.Metrics["ns/op"], f.Metrics["ns/op"]; bn > 0 {
			delta := (fn - bn) / bn
			notes = append(notes, fmt.Sprintf("ns/op %.0f -> %.0f (%+.1f%%)", bn, fn, 100*delta))
			if gated && delta > tol {
				fail = true
				notes = append(notes, fmt.Sprintf("exceeds +%.0f%% band", 100*tol))
			}
		}
		ba, hasBase := b.Metrics["allocs/op"]
		fa, hasFresh := f.Metrics["allocs/op"]
		if hasBase {
			notes = append(notes, fmt.Sprintf("allocs/op %.0f -> %.0f", ba, fa))
			// Any allocation regression fails a gated benchmark: its
			// allocs/op is deterministic, so even +1 means the hot path
			// grew an allocation.
			if gated && (!hasFresh || math.Round(fa) > math.Round(ba)) {
				fail = true
				notes = append(notes, "allocs/op regressed")
			}
		}
		if fail {
			status = "FAIL"
			failures++
		}
		fmt.Printf("%s %-50s %s\n", status, n, strings.Join(notes, ", "))
	}
	if failures > 0 {
		return fmt.Errorf("%d benchmark(s) regressed vs %s", failures, basePath)
	}
	fmt.Printf("all %d benchmarks within budget vs %s\n", len(names), basePath)
	return nil
}
