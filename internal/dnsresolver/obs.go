package dnsresolver

import (
	"fmt"
	"time"

	"rrdps/internal/obs"
)

// clientObs holds the client's metric handles, resolved once at
// SetObserver time so the hot path never touches the registry's map.
//
// Every dns.* metric is registered volatile. Concurrent misses on one
// entry share a single fill (flight.go), but order still counts: a worker
// can find glue that a site later in the caller's order already cached,
// where a serial pass resolves that nameserver itself, so attempt-level
// totals can depend on scheduling (see the QueryStats doc). The metrics
// still mirror QueryStats field-for-field — they are operational
// telemetry, not determinism-checked invariants.
type clientObs struct {
	queries   *obs.Counter
	attempts  *obs.Counter
	retries   *obs.Counter
	hedges    *obs.Counter
	timeouts  *obs.Counter
	corrupt   *obs.Counter
	bad       *obs.Counter
	recovered *obs.Counter
	failed    *obs.Counter

	attemptsPerQuery *obs.Histogram
	backoffNs        *obs.Histogram
}

func newClientObs(r *obs.Registry) *clientObs {
	if r == nil {
		return nil
	}
	return &clientObs{
		queries:          r.VolatileCounter("dns.queries"),
		attempts:         r.VolatileCounter("dns.attempts"),
		retries:          r.VolatileCounter("dns.retries"),
		hedges:           r.VolatileCounter("dns.hedges"),
		timeouts:         r.VolatileCounter("dns.timeouts"),
		corrupt:          r.VolatileCounter("dns.corrupt_replies"),
		bad:              r.VolatileCounter("dns.bad_responses"),
		recovered:        r.VolatileCounter("dns.recovered"),
		failed:           r.VolatileCounter("dns.failed"),
		attemptsPerQuery: r.VolatileHistogram("dns.attempts_per_query"),
		backoffNs:        r.VolatileHistogram("dns.backoff_ns"),
	}
}

// Nil-safe per-event hooks (a nil *clientObs means no registry installed;
// the underlying obs handles are themselves nil-safe, so these guards are
// only about dereferencing the struct).

func (o *clientObs) observeQuery() {
	if o != nil {
		o.queries.Inc()
	}
}

func (o *clientObs) observeAttempt() {
	if o != nil {
		o.attempts.Inc()
	}
}

func (o *clientObs) observeRetry(backoff time.Duration) {
	if o != nil {
		o.retries.Inc()
		o.backoffNs.ObserveDuration(backoff)
	}
}

func (o *clientObs) observeHedge() {
	if o != nil {
		o.hedges.Inc()
	}
}

func (o *clientObs) observeOutcome(attempts int, recovered bool) {
	if o != nil {
		o.attemptsPerQuery.Observe(uint64(attempts))
		if recovered {
			o.recovered.Inc()
		}
	}
}

func (o *clientObs) observeTimeout() {
	if o != nil {
		o.timeouts.Inc()
	}
}

func (o *clientObs) observeCorrupt() {
	if o != nil {
		o.corrupt.Inc()
	}
}

func (o *clientObs) observeFailed(bad bool) {
	if o != nil {
		if bad {
			o.bad.Inc()
		}
		o.failed.Inc()
	}
}

// cacheObs counts cache lookups per stripe. Like the dns.* client
// metrics, hit/miss totals are volatile: whether a host's address is
// already cached when a walk needs it can depend on which sites other
// workers resolved first (the glue order effect, flight.go).
type cacheObs struct {
	hit  *obs.Counter
	miss *obs.Counter

	stripeHit  [cacheShards]*obs.Counter
	stripeMiss [cacheShards]*obs.Counter
}

func newCacheObs(r *obs.Registry) *cacheObs {
	if r == nil {
		return nil
	}
	o := &cacheObs{
		hit:  r.VolatileCounter("dns.cache.hit"),
		miss: r.VolatileCounter("dns.cache.miss"),
	}
	for i := 0; i < cacheShards; i++ {
		o.stripeHit[i] = r.VolatileCounter(fmt.Sprintf("dns.cache.stripe%02d.hit", i))
		o.stripeMiss[i] = r.VolatileCounter(fmt.Sprintf("dns.cache.stripe%02d.miss", i))
	}
	return o
}

// observe records one lookup against stripe idx.
func (o *cacheObs) observe(idx int, hit bool) {
	if o == nil {
		return
	}
	if hit {
		o.hit.Inc()
		o.stripeHit[idx].Inc()
	} else {
		o.miss.Inc()
		o.stripeMiss[idx].Inc()
	}
}

// SetObserver installs a metrics registry on the client. Like SetPolicy,
// call it between passes (the campaigns install it before the first
// pass); a nil registry uninstalls.
func (c *Client) SetObserver(r *obs.Registry) {
	c.obs.Store(newClientObs(r))
}

// SetObserver installs a metrics registry on the resolver's client and
// cache. A nil registry uninstalls.
func (r *Resolver) SetObserver(reg *obs.Registry) {
	r.client.SetObserver(reg)
	r.cache.setObserver(reg)
}
