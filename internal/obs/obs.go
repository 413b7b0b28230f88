// Package obs is the measurement pipeline's observability layer: a
// dependency-free metrics registry (atomic counters, gauges, and
// fixed-log-scale histograms with snapshot/diff semantics) plus a
// lightweight phase tracer with a ring-buffered event log.
//
// The design mirrors dnsresolver.QueryStats: every metric is a sum of
// increments, so aggregating across components and comparing across
// serial/parallel runs is well-defined. A component with its own tally
// publishes it where it folds it, rather than counting each event twice:
// the resolver adds each call's QueryStats and cache lookups to its
// dns.* counters in the fold that updates Stats(). Metrics whose values
// legitimately depend on goroutine scheduling — which worker fills a
// shared cache entry first, and so who counts a hit or a miss — are
// registered as *volatile* and can be stripped from a snapshot before an
// equality check (Deterministic).
//
// Everything is nil-safe: a nil *Registry hands out nil metrics, and nil
// metrics no-op, so components instrument unconditionally and pay nothing
// when no registry is installed.
package obs

import "sync"

// Registry is a named collection of metrics plus a phase tracer. Metric
// handles are get-or-create: asking twice for the same name returns the
// same metric, which is how independent components (five scan vantage
// clients, say) fold their events into one campaign-wide total.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracer   *Tracer
}

// NewRegistry creates an empty registry with a default-capacity tracer.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracer:   NewTracer(0),
	}
}

// Counter returns the named counter, creating it deterministic (the
// default: its total must be identical between serial and parallel runs
// of the same seeded campaign).
func (r *Registry) Counter(name string) *Counter { return r.counter(name, false) }

// VolatileCounter returns the named counter, creating it volatile: its
// total may depend on goroutine scheduling (e.g. cold-cache races), so
// Snapshot.Deterministic drops it before equality checks.
func (r *Registry) VolatileCounter(name string) *Counter { return r.counter(name, true) }

func (r *Registry) counter(name string, volatile bool) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{volatile: volatile}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram (deterministic), creating it if
// needed. Buckets are fixed log-scale: bucket i>0 covers [2^(i-1), 2^i).
func (r *Registry) Histogram(name string) *Histogram { return r.histogram(name, false) }

// VolatileHistogram returns the named histogram, creating it volatile.
func (r *Registry) VolatileHistogram(name string) *Histogram { return r.histogram(name, true) }

func (r *Registry) histogram(name string, volatile bool) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{volatile: volatile}
		r.hists[name] = h
	}
	return h
}

// Tracer returns the registry's phase tracer (nil for a nil registry).
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// Snapshot captures every registered metric's current value. Safe to call
// concurrently with metric updates; each value is an atomic read, so the
// snapshot is per-metric consistent (the campaigns snapshot at pass
// boundaries, where it is globally consistent too).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
		Volatile:   map[string]bool{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
		if c.volatile {
			s.Volatile[name] = true
		}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
		if h.volatile {
			s.Volatile[name] = true
		}
	}
	return s
}

// Restore overwrites the registry's metrics from a snapshot, recreating
// each metric with the volatility the snapshot recorded — the campaign
// resume path, where a checkpointed registry picks up exactly where the
// interrupted run's accounting stopped. Metrics already registered keep
// their identity (handles held by components stay live); metrics absent
// from the snapshot are left untouched. Nil-safe.
func (r *Registry) Restore(s Snapshot) {
	if r == nil {
		return
	}
	for name, v := range s.Counters {
		c := r.counter(name, s.Volatile[name])
		c.v.Store(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name).Set(v)
	}
	for name, hs := range s.Histograms {
		r.histogram(name, s.Volatile[name]).restore(hs)
	}
}

// Dump bundles the snapshot with the tracer's per-phase aggregates and
// raw event log — the unit the cmd binaries serialize behind -metrics.
type Dump struct {
	Snapshot Snapshot       `json:"snapshot"`
	Phases   []PhaseSummary `json:"phases"`
	Events   []Event        `json:"events,omitempty"`
}

// Dump captures the registry and tracer state.
func (r *Registry) Dump() Dump {
	d := Dump{Snapshot: r.Snapshot()}
	if t := r.Tracer(); t != nil {
		d.Phases = t.PhaseSummaries()
		d.Events = t.Events()
	}
	return d
}
