package dnsresolver

import "rrdps/internal/obs"

// dnsMetrics is a client's view of an installed registry, its handles
// resolved once at SetObserver time. The client counts nothing here per
// event: statsCounters.fold publishes each call's tally, the same delta
// Stats() gets, so the dns.* counters equal the QueryStats fields (Backoff
// in nanoseconds as dns.backoff_ns) and a resolution's cache lookups add
// to dns.cache.hit and dns.cache.miss.
//
// Every dns.* metric is registered volatile. Concurrent misses on one
// entry share a single fill (flight.go), but order still counts: a worker
// can find glue that a site later in the caller's order already cached,
// where a serial pass resolves that nameserver itself, so attempt-level
// totals can depend on scheduling (see the QueryStats doc). They are
// operational telemetry, not determinism-checked invariants.
type dnsMetrics struct {
	tally               [len(tallyNames)]*obs.Counter
	cacheHit, cacheMiss *obs.Counter
}

func newDNSMetrics(r *obs.Registry) *dnsMetrics {
	if r == nil {
		return nil
	}
	m := &dnsMetrics{
		cacheHit:  r.VolatileCounter("dns.cache.hit"),
		cacheMiss: r.VolatileCounter("dns.cache.miss"),
	}
	for i, name := range tallyNames {
		m.tally[i] = r.VolatileCounter(name)
	}
	return m
}

// publish adds one call's tally and cache lookups (l may be nil).
func (m *dnsMetrics) publish(t *tally, l *lookups) {
	add := func(c *obs.Counter, v uint64) {
		if v != 0 {
			c.Add(v)
		}
	}
	for i, v := range t {
		add(m.tally[i], v)
	}
	if l != nil {
		add(m.cacheHit, l.hits)
		add(m.cacheMiss, l.misses)
	}
}

// SetObserver installs a metrics registry on the client. Like SetPolicy,
// call it between passes (the campaigns install it before the first
// pass); a nil registry uninstalls.
func (c *Client) SetObserver(r *obs.Registry) {
	c.stats.metrics.Store(newDNSMetrics(r))
}

// SetObserver installs a metrics registry on the resolver's client, which
// publishes the resolutions' cache lookups too. A nil registry
// uninstalls.
func (r *Resolver) SetObserver(reg *obs.Registry) { r.client.SetObserver(reg) }
