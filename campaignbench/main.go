// Command campaignbench is the repository's end-to-end benchmark. It
// drives the two measurement campaigns and the lookup service through
// their public functions from one process and reports end-to-end and
// per-layer metrics. Run it through run.sh from the repository root:
//
//	bash campaignbench/run.sh --workload dyn-daily --seed 1 --seconds 10 --trace 0
//
// Workloads: dyn-daily (one §IV AppendDay per operation), res-weekly (one
// durable §V scan-week AppendRound per operation) and serve-read
// (closed-loop lookups against a reloaded checkpoint). --trace 0 prints
// the end-to-end metrics; --trace 1 runs the workload untraced and then
// traced, and prints the per-layer metrics and a span file. The last
// line of output is one JSON object; the exit code is 1 when an output
// check failed and 2 on a usage error. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"rrdps/internal/obs"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 9

// steal reads the CPU steal counters the timings are taken net of.
var steal = newStealMeter()

// workloads maps each workload name to its campaign set-up (nil for the
// lookup service), the batch size its throughput samples span, and how
// many operations a campaign run appends per second of --seconds.
//
// A campaign run appends a fixed number of operations rather than
// stopping on the clock, so every build times the same days or weeks.
// A res-weekly week costs more the more weeks came before it (the
// residual cursor and the checkpoint grow), so a clock-bound run would
// have a faster build time later, costlier weeks and end with a larger
// heap. The rates fill about --seconds on a 2-vCPU VM.
var workloads = map[string]struct {
	setup     func(*env, *spanLog) (campaign, error)
	batch     int
	perSecond float64
}{
	"dyn-daily":  {setupDyn, 8, 20},
	"res-weekly": {setupRes, 4, 6},
	"serve-read": {nil, 0, 0},
}

// limitFactor bounds a campaign run on a much slower build: it stops
// after limitFactor times --seconds even if operations remain, and warns
// that its figures cover fewer operations.
const limitFactor = 3

// perLayer lists the traced run's metrics in output order, with units.
// Every traced run prints all of them; a layer that does no work on a
// workload reads 0.
var perLayer = []struct{ name, unit string }{
	{"world.build_ms", "ms"},
	{"engine.new_ms", "ms"},
	{"engine.result_ms", "ms"},
	{"report.render_ms", "ms"},
	{"collect.ms_per_op", "ms"},
	{"collect.share_of_op", "ratio"},
	{"day.other_ms", "ms"},
	{"week.other_ms", "ms"},
	{"dns.queries_per_domain_day", "count"},
	{"dns.attempts_per_query", "ratio"},
	{"dns.retries_per_query", "ratio"},
	{"dns.useful_attempt_ratio", "ratio"},
	{"dns.cache_hit_ratio", "ratio"},
	{"dns.queries", "count"},
	{"dns.attempts", "count"},
	{"dns.retries", "count"},
	{"dns.failed", "count"},
	{"dns.cache_hits", "count"},
	{"dns.cache_misses", "count"},
	{"netsim.sends_per_domain_day", "count"},
	{"netsim.sends", "count"},
	{"scan.ms_per_week", "ms"},
	{"scan.answered_ratio", "ratio"},
	{"scan.queries", "count"},
	{"scan.answered", "count"},
	{"cname.ms_per_week", "ms"},
	{"filter.ms_per_week", "ms"},
	{"filter.hidden_per_scanned", "ratio"},
	{"filter.scanned", "count"},
	{"filter.hidden", "count"},
	{"verify.ms_per_week", "ms"},
	{"verify.comparisons_per_week", "count"},
	{"verify.match_ratio", "ratio"},
	{"verify.comparisons", "count"},
	{"verify.matches", "count"},
	{"snapdisk.checkpoint_ms", "ms"},
	{"snapdisk.open_ms", "ms"},
	{"snapdisk.dir_MiB", "MiB"},
	{"snapstore.versions_per_round", "count"},
	{"snapstore.interned_names", "count"},
	{"serve.domain_p99_us", "us"},
	{"serve.history_p99_us", "us"},
	{"serve.list_p99_us", "us"},
	{"serve.stats_p99_us", "us"},
	{"serve.resp_B_per_req", "B"},
	{"serve.requests", "count"},
	{"go.alloc_B_per_op", "B"},
	{"go.allocs_per_op", "count"},
	{"go.gc_cpu_share", "ratio"},
	{"go.heap_peak_MiB", "MiB"},
	{"trace.ops", "count"},
	{"trace.overhead_pct", "%"},
}

// outcome is everything one run reports.
type outcome struct {
	metrics   []metric
	attempted int
	failed    int
	errs      []error // the failures' messages; a phase keeps only its first few
	notes     []string
}

func (o *outcome) add(m metric) { o.metrics = append(o.metrics, m) }

func (o *outcome) check(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.errs = append(o.errs, err)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "dyn-daily, res-weekly or serve-read")
	seed := fs.Int64("seed", 1, "world and request-stream seed")
	seconds := fs.Float64("seconds", 10, "how long the run measures")
	trace := fs.Int("trace", 0, "1 = also run traced and report per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "campaignbench"), "scratch dir for checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "campaignbench: need --workload dyn-daily|res-weekly|serve-read, --seconds > 0 and --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "campaignbench: %v\n", err)
		return 1
	}
	host := newHostContext()
	fmt.Fprintf(stdout, "campaignbench: workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)

	base := env{seed: *seed, work: *work}
	d := time.Duration(*seconds * float64(time.Second))
	var o *outcome
	// A campaign run appends ops operations: a multiple of twice the
	// batch, so each half of a traced run is whole batches.
	var ops int
	if wl.setup != nil {
		ops = max(1, int(*seconds*wl.perSecond)/(2*wl.batch)) * 2 * wl.batch
	}
	switch {
	case wl.setup != nil && *trace == 0:
		o = campaignRun(base, wl.setup, wl.batch, ops, limitFactor*d)
	case wl.setup != nil:
		o = campaignTraced(base, *workload, wl.setup, wl.batch, ops/2, limitFactor*d/2)
	case *trace == 0:
		o = serveRunUntraced(base, d)
	default:
		o = serveTraced(base, *workload, d)
	}
	host.StealAfter = stealTicks()

	hostJSON, _ := json.Marshal(host) // a struct of plain fields always encodes
	fmt.Fprintf(stdout, "host %s\n", hostJSON)
	for _, n := range o.notes {
		fmt.Fprintln(stdout, n)
	}
	for _, m := range o.metrics {
		fmt.Fprintf(stdout, "metric %s\n", m)
	}
	failed := o.failed
	fmt.Fprintf(stdout, "error_rate %.6f (%d failed of %d attempted)\n", float64(failed)/float64(max(o.attempted, 1)), failed, o.attempted)
	for _, err := range o.errs {
		fmt.Fprintf(stdout, "FAIL %v\n", err)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, max(o.attempted, 1), failed, map[string]value{}}
	for _, m := range o.metrics {
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if failed > 0 {
		return 1
	}
	return 0
}

// protect runs f and turns a panic into an error: a panicking append or
// check is a failed operation, not a crashed benchmark.
func protect(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, firstLines(debug.Stack(), 12))
		}
	}()
	f()
	return nil
}

func firstLines(b []byte, n int) string {
	lines := strings.SplitN(string(b), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// guarded runs a set-up and turns a panic in it into an error.
func guarded[T any](setup func() (T, error)) (inst T, err error) {
	if perr := protect(func() { inst, err = setup() }); perr != nil {
		err = perr
	}
	return inst, err
}

// setupMedian sets the workload up setupReps times, keeps the last
// instance and returns the median set-up time, net of steal. Each
// earlier instance is released before the next is built.
func setupMedian[T any](setup func() (T, error), release func(T)) (T, metric, error) {
	var times []float64
	var inst T
	var err error
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			release(inst)
			debug.FreeOSMemory() // each set-up starts from the same heap
		}
		s0 := steal.read()
		t := time.Now()
		if inst, err = guarded(setup); err != nil {
			return inst, metric{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, max(time.Since(t)-stealMax(s0, steal.read()), 0).Seconds())
	}
	return inst, metric{name: "setup_s", value: median(times), unit: "s", n: len(times), note: fmt.Sprintf("each %.4f", times)}, nil
}

// runOps appends ops operations, or fewer if limit passes first. Each
// operation is timed net of the steal its CPUs took meanwhile. A panic
// ends the phase: the engine's state is undefined after it.
func runOps(c campaign, l *spanLog, ops, batch int, limit time.Duration) (*opRun, error) {
	var net, gross []time.Duration
	var items []int
	var stolen time.Duration
	deadline := time.Now().Add(limit)
	var err error
	for op := 0; op < ops; op++ {
		if !time.Now().Before(deadline) {
			break
		}
		var n int
		s0 := steal.read()
		t := time.Now()
		if perr := protect(func() { n = c.step(l, int64(op)) }); perr != nil {
			err = fmt.Errorf("operation %d: %w", op, perr)
			break
		}
		lat := time.Since(t)
		st := min(stealMax(s0, steal.read()), lat)
		stolen += st
		net = append(net, lat-st)
		gross = append(gross, lat)
		items = append(items, n)
	}
	r := &opRun{lat: sortLatencies(net), gross: sortLatencies(gross), ops: len(net), planned: ops, stolen: stolen, rates: batchRates(net, items, batch)}
	for i, n := range items {
		r.items += n
		r.busy += net[i]
	}
	if k := len(net) / 10; k > 0 {
		r.trend = fmt.Sprintf("mean latency of the first 10%% of operations %.3f ms, of the last 10%% %.3f ms",
			meanMs(net[:k]), meanMs(net[len(net)-k:]))
	}
	return r, err
}

// endToEnd appends the untraced run's end-to-end metrics.
func endToEnd(o *outcome, setup metric, r *opRun) {
	o.add(setup)
	o.add(metric{name: "throughput_per_s", value: median(r.rates), unit: "1/s", n: len(r.rates),
		note: fmt.Sprintf("median of %d samples; mean %.1f/s over %d ops; %v of steal taken out", len(r.rates), r.meanRate(), r.ops, r.stolen.Round(time.Millisecond))})
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}} {
		v, ok := percentile(r.lat, p.q)
		m := metric{name: p.name, value: v, unit: "ms", n: r.lat.count()}
		if r.gross != nil {
			g, _ := percentile(r.gross, p.q)
			m.note = fmt.Sprintf("gross %.4f ms", g)
		}
		if !ok {
			m.note += fmt.Sprintf(" WARNING: fewer than %d samples beyond this percentile", minTail)
		}
		o.add(m)
	}
	if r.trend != "" {
		o.notes = append(o.notes, r.trend)
	}
	if r.ops < r.planned {
		o.notes = append(o.notes, fmt.Sprintf("WARNING: the time limit stopped the run after %d of %d operations", r.ops, r.planned))
	}
	if rss, err := peakRSSMiB(); err != nil {
		o.check(err)
	} else {
		o.add(metric{name: "peak_rss_MiB", value: rss, unit: "MiB"})
	}
}

// campaignRun is the untraced run of a campaign workload.
func campaignRun(base env, setup func(*env, *spanLog) (campaign, error), batch, ops int, limit time.Duration) *outcome {
	o := &outcome{}
	e := base
	c, setupM, err := setupMedian(func() (campaign, error) { return setup(&e, nil) }, func(c campaign) { c.close() })
	if err != nil {
		o.check(err)
		return o
	}
	defer c.close()
	runtime.GC()
	r, err := runOps(c, nil, ops, batch, limit)
	o.attempted += r.ops
	if err != nil {
		o.check(err)
	} else {
		finishChecks(o, c, nil)
	}
	endToEnd(o, setupM, r)
	return o
}

func finishChecks(o *outcome, c campaign, l *spanLog) {
	var checks int
	var errs []error
	if err := protect(func() { checks, errs = c.finish(l) }); err != nil {
		o.check(err)
		return
	}
	o.attempted += checks
	o.failed += len(errs)
	o.errs = append(o.errs, errs...)
}

// heapSampler tracks the peak heap while a phase runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		peak := heapObjectsBytes()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- max(peak, heapObjectsBytes())
				return
			case <-tick.C:
				peak = max(peak, heapObjectsBytes())
			}
		}
	}()
	return h
}

// peakMiB stops the sampler and returns the peak it saw.
func (h *heapSampler) peakMiB() float64 {
	close(h.stop)
	return float64(<-h.done) / (1 << 20)
}

// goLayer derives the Go runtime rows from an untraced phase.
func goLayer(ls layers, before, after goCounters, ops int, heapPeakMiB float64) {
	if ops > 0 {
		ls["go.alloc_B_per_op"] = float64(after.allocBytes-before.allocBytes) / float64(ops)
		ls["go.allocs_per_op"] = float64(after.allocObjects-before.allocObjects) / float64(ops)
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		ls["go.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	ls["go.heap_peak_MiB"] = heapPeakMiB
}

// untracedPhase runs the first half of a traced run: the workload as the
// untraced run measures it, with the Go runtime rows read around it.
func untracedPhase(o *outcome, ls layers, base env, setup func(*env, *spanLog) (campaign, error), batch, ops int, limit time.Duration) (*opRun, string, bool) {
	e := base
	c, err := guarded(func() (campaign, error) { return setup(&e, nil) })
	if err != nil {
		o.check(fmt.Errorf("untraced set-up: %w", err))
		return nil, "", false
	}
	defer c.close()
	runtime.GC()
	hs := startHeapSampler()
	before := readGoCounters()
	r, err := runOps(c, nil, ops, batch, limit)
	after := readGoCounters()
	goLayer(ls, before, after, r.ops, hs.peakMiB())
	o.attempted += r.ops
	if err != nil {
		o.check(err)
		return r, "", false
	}
	var rep string
	if err := protect(func() { rep = c.report(nil) }); err != nil {
		o.check(err)
		return r, "", false
	}
	finishChecks(o, c, nil)
	return r, rep, true
}

// campaignTraced runs perPhase operations of a campaign workload
// untraced and then the same operations traced, checks the two reports
// agree byte for byte, and reports the per-layer metrics of the traced
// half plus the tracing overhead.
func campaignTraced(base env, name string, setup func(*env, *spanLog) (campaign, error), batch, perPhase int, limit time.Duration) *outcome {
	o := &outcome{}
	ls := layers{}
	r1, rep1, ok := untracedPhase(o, ls, base, setup, batch, perPhase, limit)
	if !ok {
		return perLayerOutcome(o, ls)
	}

	tr := newTracer()
	l := tr.log()
	e := base
	e.reg = obs.NewRegistry()
	e.layers = ls
	c, err := guarded(func() (campaign, error) { return setup(&e, l) })
	if err != nil {
		o.check(fmt.Errorf("traced set-up: %w", err))
		return perLayerOutcome(o, ls)
	}
	defer c.close()
	runtime.GC()
	snap0, phases0 := e.reg.Snapshot(), phaseTotals(e.reg)
	stats0 := c.stats()
	sends0, _ := c.world().Net.Stats()
	r2, err := runOps(c, l, perPhase, batch, limit)
	o.attempted += r2.ops
	if err != nil {
		o.check(err)
		return perLayerOutcome(o, ls)
	}
	snap1, phases1 := e.reg.Snapshot(), phaseTotals(e.reg)
	stats1 := c.stats()
	sends1, _ := c.world().Net.Stats()

	var rep2 string
	if err := protect(func() { rep2 = c.report(l) }); err != nil {
		o.check(err)
		return perLayerOutcome(o, ls)
	}
	finishChecks(o, c, l)
	if rep1 != rep2 {
		o.check(fmt.Errorf("traced and untraced reports differ:\n  untraced: %s\n  traced:   %s", rep1, rep2))
	} else {
		o.check(nil)
	}
	o.notes = append(o.notes, "report "+rep2)

	ops, items := float64(r2.ops), float64(r2.items)
	dp := phases1.minus(phases0)
	ls["trace.ops"] = ops
	ls["trace.overhead_pct"] = overheadPct(r1.meanRate(), r2.meanRate())
	opPhase := "day"
	if dp.ms("week") > 0 {
		opPhase = "week"
	}
	ls["collect.ms_per_op"] = dp.ms("collect") / ops
	if op := dp.ms(opPhase); op > 0 {
		ls["collect.share_of_op"] = dp.ms("collect") / op
	}
	if opPhase == "day" {
		ls["day.other_ms"] = (dp.ms("day") - dp.ms("collect")) / ops
	} else {
		ls["week.other_ms"] = (dp.ms("week") - dp.ms("collect") - dp.ms("scan") - dp.ms("cname") - dp.ms("filter")) / ops
	}
	for _, ph := range []string{"scan", "cname", "filter", "verify"} {
		ls[ph+".ms_per_week"] = dp.ms(ph) / ops
	}

	cnt := func(name string) float64 { return float64(snap1.Counters[name] - snap0.Counters[name]) }
	queries := float64(stats1.Queries - stats0.Queries)
	attempts := float64(stats1.Attempts - stats0.Attempts)
	retries := float64(stats1.Retries - stats0.Retries)
	failedQ := float64(stats1.Failed - stats0.Failed)
	hits, misses := cnt("dns.cache.hit"), cnt("dns.cache.miss")
	ls["dns.queries"], ls["dns.attempts"], ls["dns.retries"], ls["dns.failed"] = queries, attempts, retries, failedQ
	ls["dns.cache_hits"], ls["dns.cache_misses"] = hits, misses
	ls["dns.queries_per_domain_day"] = ratio(queries, items)
	ls["dns.attempts_per_query"] = ratio(attempts, queries)
	ls["dns.retries_per_query"] = ratio(retries, queries)
	ls["dns.useful_attempt_ratio"] = ratio(queries-failedQ, attempts)
	ls["dns.cache_hit_ratio"] = ratio(hits, hits+misses)
	ls["netsim.sends"] = float64(sends1 - sends0)
	ls["netsim.sends_per_domain_day"] = ratio(float64(sends1-sends0), items)
	ls["scan.queries"], ls["scan.answered"] = cnt("scan.queries"), cnt("scan.answered")
	ls["scan.answered_ratio"] = ratio(cnt("scan.answered"), cnt("scan.queries"))
	ls["filter.scanned"], ls["filter.hidden"] = cnt("filter.scanned"), cnt("filter.hidden")
	ls["filter.hidden_per_scanned"] = ratio(cnt("filter.hidden"), cnt("filter.scanned"))
	ls["verify.comparisons"], ls["verify.matches"] = cnt("verify.comparisons"), cnt("verify.matches")
	ls["verify.comparisons_per_week"] = cnt("verify.comparisons") / ops
	ls["verify.match_ratio"] = ratio(cnt("verify.matches"), cnt("verify.comparisons"))

	writeTrace(o, tr, e, name)
	return perLayerOutcome(o, ls)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// overheadPct is how much slower the traced phase ran, in percent of the
// untraced throughput.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (1 - traced/untraced) * 100
}

// writeTrace writes the traced phase's spans and prints the self-time
// table.
func writeTrace(o *outcome, tr *tracer, e env, name string) {
	spans := tr.collect(e.reg)
	path := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.seed))
	if err := writeSpans(path, spans); err != nil {
		o.check(err)
		return
	}
	o.notes = append(o.notes, fmt.Sprintf("spans %s (%d spans, %d obs events dropped by the ring)", path, len(spans), e.reg.Tracer().Dropped()))
	rows := selfSummary(spans)
	o.notes = append(o.notes, fmt.Sprintf("%-34s %9s %12s %12s", "self time by span", "count", "total_ms", "self_ms"))
	for _, r := range rows {
		if r.Self < time.Millisecond && r.Count < 100 {
			continue
		}
		o.notes = append(o.notes, fmt.Sprintf("  %-32s %9d %12.1f %12.1f", r.Name, r.Count,
			float64(r.Total)/float64(time.Millisecond), float64(r.Self)/float64(time.Millisecond)))
	}
}

// perLayerOutcome fills in every per-layer metric, zero where the
// workload's layers did no work.
func perLayerOutcome(o *outcome, ls layers) *outcome {
	for _, pl := range perLayer {
		o.add(metric{name: pl.name, value: ls[pl.name], unit: pl.unit})
	}
	return o
}
