package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/obs"
	"rrdps/internal/serve"
	"rrdps/internal/world"
)

const (
	// The serve-read fixture: a res-weekly-shaped durable campaign, small
	// enough to build three times in set-up.
	fixtureSites = 2000
	fixtureWeeks = 4
	benchKey     = "campaignbench-key"
	// window is the wall-clock slice the lookup service's throughput is
	// sampled over; the run reports the median window.
	window = 100 * time.Millisecond
	// Apex k (0-based rank) is requested with probability proportional
	// to (zipfV+k)^-zipfS: half the lookups go to the top 100 of 2000
	// apexes, but no single apex gets more than ~2.5% of them. With the
	// offset at 1 the top apex alone took ~17%, and whichever apexes a
	// seed ranked first spread throughput over ten seeds from 57k to
	// 88k req/s on a 2-vCPU box.
	zipfS = 1.1
	zipfV = 10
)

// routes of the request mix, in the order their shares are drawn.
const (
	routeUnknown = iota // /v1/domain/{apex} of a planted unknown apex: 404
	routeDomain
	routeHistory
	routeList
	routeStats
	numRoutes
)

// routeSpans are the traced run's span names, one per route.
var routeSpans = [numRoutes]string{
	"ServeHTTP unknown", "ServeHTTP domain", "ServeHTTP history", "ServeHTTP list", "ServeHTTP stats",
}

// routeShare is the cumulative share of each route in the mix: mostly
// single-domain lookups, some history and list pages, a few stats calls,
// and 2% unknown apexes.
var routeShare = [numRoutes]float64{0.02, 0.82, 0.92, 0.97, 1}

// serveFixture is the loaded epoch behind the lookup service and the
// report of the campaign that wrote it.
type serveFixture struct {
	handler http.Handler
	apexes  []dnsmsg.Name
	report  string
}

// setupServe builds the fixture campaign into a fresh checkpoint dir,
// reloads it read-only and mounts the service on it (one API key, rate
// limiting off).
func setupServe(e *env, l *spanLog) (*serveFixture, error) {
	dir, err := os.MkdirTemp(e.work, "serve-read-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	root := l.open("setup", 0, -1)
	defer l.close(root)

	var w *world.World
	cfg := residualWorld(fixtureSites, e.seed)
	e.timed(l, "world.New", root, -1, "world.build_ms", func() { w = world.New(cfg) })
	var en *experiment.ResidualEngine
	e.timed(l, "Residual.NewEngine", root, -1, "engine.new_ms", func() {
		en = experiment.Residual{
			World:         w,
			WarmupDays:    resWarmup,
			Workers:       runtime.GOMAXPROCS(0),
			Obs:           e.reg,
			CheckpointDir: dir,
		}.NewEngine()
	})
	defer en.Close()
	for en.InWarmup() || en.NextWeek() <= fixtureWeeks {
		l.call("AppendRound", root, -1, func() { en.AppendRound() })
	}
	e.timed(l, "Checkpoint", root, -1, "snapdisk.checkpoint_ms", func() { en.Checkpoint() })
	f := &serveFixture{report: renderReport(e, l, func() fmt.Stringer { return en.Result() })}

	var src *serve.CheckpointSource
	e.timed(l, "serve.OpenCheckpoint", root, -1, "snapdisk.open_ms", func() { src, err = serve.OpenCheckpoint(dir) })
	if err != nil {
		return nil, err
	}
	ep, _ := src.Epoch()
	f.apexes = ep.View.Apexes()
	if len(f.apexes) < 2 {
		return nil, fmt.Errorf("serve-read: fixture epoch holds %d apexes", len(f.apexes))
	}
	if e.layers != nil {
		size, err := dirMiB(dir)
		if err != nil {
			return nil, err
		}
		e.layers["snapdisk.dir_MiB"] = size
		e.layers.storeShape(ep.View.Stats())
	}
	f.handler = serve.New(serve.Config{Source: src, APIKeys: []string{benchKey}, Registry: e.reg}).Handler()
	return f, nil
}

// recorder is a reusable in-process http.ResponseWriter.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(b)
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

// serveRun is one phase of closed-loop load on the lookup service.
type serveRun struct {
	opRun
	// handlerShare is the share of the clients' wall time spent inside
	// ServeHTTP; the rest is the benchmark building requests and checking
	// responses.
	handlerShare float64
	byRoute      [numRoutes]*histogram
	bodyB        int64
	failed       int
	failures     []error // the first few, for the log
}

// clientState is one closed-loop client: it sends its next request only
// after the previous one returned.
type clientState struct {
	done     atomic.Int64
	handler  atomic.Int64 // nanoseconds spent inside ServeHTTP
	byRoute  [numRoutes]*histogram
	bodyB    int64
	failed   int
	failures []error
}

// loadServe runs clients closed-loop clients against f for d and
// returns the merged run. Each client draws its requests from its own
// seeded stream: apexes Zipf-by-rank, routes by routeShare.
func loadServe(f *serveFixture, tr *tracer, seed int64, clients int, d time.Duration) *serveRun {
	states := make([]*clientState, clients)
	for i := range states {
		states[i] = &clientState{}
		for rt := range states[i].byRoute {
			states[i].byRoute[rt] = &histogram{}
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, st := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.run(f, tr.log(), rand.New(rand.NewSource(seed*7919+int64(i))), deadline, int64(i), int64(clients))
		}()
	}

	// Sample each window's throughput while the clients run. It counts
	// handler time only: per client, the requests it completed over the
	// time it spent inside ServeHTTP, summed over the clients. Building
	// requests and checking responses is the benchmark's own work and
	// stays out of it. Steal is spread evenly over a window, so handler
	// time is taken net of the window's share of the mean steal across
	// CPUs (each client owns one CPU's worth of time).
	var rates []float64
	lastDone, lastHandler := make([]int64, clients), make([]int64, clients)
	lastAt, lastSteal := start, steal.read()
	startSteal := lastSteal
	tick := time.NewTicker(window)
	for now := range tick.C {
		if now.After(deadline) {
			break
		}
		cur := steal.read()
		kept := 1 - float64(stealMean(lastSteal, cur))/float64(now.Sub(lastAt))
		var rate float64
		for i, st := range states {
			done, handler := st.done.Load(), st.handler.Load()
			if net := float64(handler-lastHandler[i]) * kept; net > 0 {
				rate += float64(done-lastDone[i]) / net * float64(time.Second)
			}
			lastDone[i], lastHandler[i] = done, handler
		}
		if kept > 0 && rate > 0 {
			rates = append(rates, rate)
		}
		lastAt, lastSteal = now, cur
	}
	tick.Stop()
	wg.Wait()

	r := &serveRun{}
	wall := time.Since(start)
	r.stolen = stealMean(startSteal, steal.read())
	var handler time.Duration
	for _, st := range states {
		handler += time.Duration(st.handler.Load())
	}
	// busy is one client's mean handler time net of steal, so meanRate
	// is the clients' summed handler throughput, as the windows are.
	r.handlerShare = float64(handler) / float64(time.Duration(clients)*wall)
	r.busy = time.Duration(float64(handler) / float64(clients) * (1 - float64(r.stolen)/float64(wall)))
	r.rates = rates
	all := &histogram{}
	for rt := range r.byRoute {
		r.byRoute[rt] = &histogram{}
		for _, st := range states {
			r.byRoute[rt].merge(st.byRoute[rt])
		}
		all.merge(r.byRoute[rt])
	}
	r.lat, r.ops, r.items = all, all.count(), all.count()
	for _, st := range states {
		r.bodyB += st.bodyB
		r.failed += st.failed
		r.failures = append(r.failures, st.failures...)
	}
	return r
}

// run sends requests until deadline. Request ids start at first and
// step by stride, so ids are unique across clients.
func (st *clientState) run(f *serveFixture, l *spanLog, rng *rand.Rand, deadline time.Time, first, stride int64) {
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(len(f.apexes)-1))
	rec := &recorder{header: http.Header{}}
	for op := first; time.Now().Before(deadline); op += stride {
		route, path, want := pickRequest(f, rng, zipf, op)
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			st.fail(fmt.Errorf("build request %s: %w", path, err))
			continue
		}
		req.Header.Set("X-API-Key", benchKey)
		rec.reset()
		id := l.open(routeSpans[route], 0, op)
		t := time.Now()
		f.handler.ServeHTTP(rec, req)
		lat := time.Since(t)
		l.close(id)
		st.handler.Add(int64(lat))
		st.done.Add(1)
		if err := checkResponse(route, want, rec); err != nil {
			st.fail(fmt.Errorf("GET %s: %w", path, err))
			continue
		}
		st.byRoute[route].record(lat)
		st.bodyB += int64(rec.body.Len())
	}
}

func (st *clientState) fail(err error) {
	st.failed++
	if len(st.failures) < 5 {
		st.failures = append(st.failures, err)
	}
}

// pickRequest draws the next request: its route, path and the apex a 200
// body must name (empty for list and stats).
func pickRequest(f *serveFixture, rng *rand.Rand, zipf *rand.Zipf, op int64) (int, string, string) {
	u := rng.Float64()
	route := 0
	for route < numRoutes-1 && u >= routeShare[route] {
		route++
	}
	switch route {
	case routeUnknown:
		apex := fmt.Sprintf("unknown-%d.bench.invalid", op)
		return route, "/v1/domain/" + apex, apex
	case routeDomain, routeHistory:
		apex := string(f.apexes[zipf.Uint64()])
		path := "/v1/domain/" + apex
		if route == routeHistory {
			path += "/history"
		}
		return route, path, apex
	case routeList:
		return route, "/v1/domains?limit=50", ""
	default:
		return route, "/v1/stats", ""
	}
}

// checkResponse is the lookup service's output check: a planted unknown
// apex answers 404, everything else 200 with a JSON body that names the
// requested apex (or, for list and stats, is non-empty).
func checkResponse(route int, want string, rec *recorder) error {
	if route == routeUnknown {
		if rec.code != http.StatusNotFound {
			return fmt.Errorf("status %d for an unknown apex, want 404", rec.code)
		}
		return nil
	}
	if rec.code != http.StatusOK {
		return fmt.Errorf("status %d, want 200", rec.code)
	}
	var body struct {
		Apex    string            `json:"apex"`
		Total   int               `json:"total"`
		Domains []json.RawMessage `json:"domains"`
		Kind    string            `json:"kind"`
	}
	if err := json.Unmarshal(rec.body.Bytes(), &body); err != nil {
		return fmt.Errorf("decode body: %w", err)
	}
	switch route {
	case routeList:
		if body.Total <= 0 || len(body.Domains) == 0 {
			return fmt.Errorf("list names %d of %d domains", len(body.Domains), body.Total)
		}
	case routeStats:
		if body.Kind != experiment.CampaignKindResidual {
			return fmt.Errorf("stats kind %q, want %q", body.Kind, experiment.CampaignKindResidual)
		}
	default:
		if body.Apex != want {
			return fmt.Errorf("body names apex %q, want %q", body.Apex, want)
		}
	}
	return nil
}

// serveCounts folds one load phase's requests and failures into o.
func serveCounts(o *outcome, r *serveRun) {
	o.attempted += r.ops + r.failed
	o.failed += r.failed
	o.errs = append(o.errs, r.failures...)
}

// serveRunUntraced is the untraced run of serve-read.
func serveRunUntraced(base env, d time.Duration) *outcome {
	o := &outcome{}
	e := base
	f, setupM, err := setupMedian(func() (*serveFixture, error) { return setupServe(&e, nil) }, func(*serveFixture) {})
	if err != nil {
		o.check(err)
		return o
	}
	runtime.GC()
	r := loadServe(f, nil, e.seed, runtime.GOMAXPROCS(0), d)
	serveCounts(o, r)
	endToEnd(o, setupM, &r.opRun)
	o.notes = append(o.notes, fmt.Sprintf("handler share %.3f of the clients' time; throughput counts handler time only", r.handlerShare))
	p99, ok := percentile(r.lat, 0.99)
	o.notes = append(o.notes, fmt.Sprintf("latency_p99_ms %.6f ms n=%d (at least %d beyond: %v)", p99, r.lat.count(), minTail, ok))
	return o
}

// serveTraced runs serve-read untraced and then traced for half the time
// each, on fixtures built from the same seed, and reports the per-layer
// metrics. The per-route latencies and response sizes come from the
// untraced half, like the Go runtime rows: the traced half keeps every
// request's span live, which makes the GC run less often and would flatter
// the handler's latency.
func serveTraced(base env, name string, d time.Duration) *outcome {
	o := &outcome{}
	ls := layers{}
	clients := runtime.GOMAXPROCS(0)
	e1 := base
	f1, err := guarded(func() (*serveFixture, error) { return setupServe(&e1, nil) })
	if err != nil {
		o.check(fmt.Errorf("untraced set-up: %w", err))
		return perLayerOutcome(o, ls)
	}
	runtime.GC()
	hs := startHeapSampler()
	before := readGoCounters()
	r1 := loadServe(f1, nil, base.seed, clients, d/2)
	goLayer(ls, before, readGoCounters(), r1.ops, hs.peakMiB())
	serveCounts(o, r1)
	rep1 := f1.report // f1's last use: the traced half runs without its heap

	tr := newTracer()
	e2 := base
	e2.reg = obs.NewRegistry()
	e2.layers = ls
	f2, err := guarded(func() (*serveFixture, error) { return setupServe(&e2, tr.log()) })
	if err != nil {
		o.check(fmt.Errorf("traced set-up: %w", err))
		return perLayerOutcome(o, ls)
	}
	runtime.GC()
	r2 := loadServe(f2, tr, base.seed, clients, d/2)
	serveCounts(o, r2)
	if rep1 != f2.report {
		o.check(fmt.Errorf("traced and untraced fixture reports differ:\n  untraced: %s\n  traced:   %s", rep1, f2.report))
	} else {
		o.check(nil)
	}
	o.notes = append(o.notes, "report "+f2.report)

	for _, rt := range []struct {
		route  int
		metric string
	}{{routeDomain, "serve.domain_p99_us"}, {routeHistory, "serve.history_p99_us"}, {routeList, "serve.list_p99_us"}, {routeStats, "serve.stats_p99_us"}} {
		h := r1.byRoute[rt.route]
		v, ok := percentile(h, 0.99)
		ls[rt.metric] = v * 1000
		if !ok {
			o.notes = append(o.notes, fmt.Sprintf("WARNING: %s rests on %d samples, fewer than %d beyond p99", rt.metric, h.count(), minTail))
		}
	}
	ls["serve.requests"] = float64(r1.ops)
	ls["serve.resp_B_per_req"] = ratio(float64(r1.bodyB), float64(r1.ops))
	ls["trace.ops"] = float64(r2.ops)
	ls["trace.overhead_pct"] = overheadPct(r1.meanRate(), r2.meanRate())
	writeTrace(o, tr, e2, name)
	return perLayerOutcome(o, ls)
}
