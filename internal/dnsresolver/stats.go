package dnsresolver

import (
	"fmt"
	"sync/atomic"
	"time"
)

// QueryStats is a snapshot of a client's resilience accounting: how many
// logical queries it issued, how many wire attempts that took, and what
// the retry/hedge machinery recovered or gave up on.
//
// Counters are sums of per-attempt events, so aggregating across clients
// (Add) and comparing across serial/parallel runs is well-defined. On the
// direct-scan path the counters are identical between serial and
// parallel runs of the same seed and policy. On the cache-backed resolver
// path, concurrent misses on one answer or zone cut wait for a single
// fill (flight.go), so workers never repeat each other's lookups, and the
// paper-baseline campaign counts the same at any worker count. What can
// still differ is order: a site may find glue that a site after it
// already cached, where a serial pass resolves that nameserver itself.
// Values are unaffected either way.
type QueryStats struct {
	// Queries counts logical queries (Exchange/ExchangeAny calls).
	Queries uint64
	// Attempts counts wire sends, including retries and hedges.
	Attempts uint64
	// Retries counts attempts after the first of a logical query.
	Retries uint64
	// Hedges counts attempts sent to a server other than the query's
	// primary candidate.
	Hedges uint64
	// Timeouts counts attempts that ended in a (possibly injected)
	// timeout.
	Timeouts uint64
	// CorruptReplies counts attempts whose reply failed wire decoding —
	// retryable, unlike validation failures.
	CorruptReplies uint64
	// BadResponses counts replies that decoded but failed ID/question
	// validation — possible spoofing, never retried.
	BadResponses uint64
	// Recovered counts logical queries that failed at least once and then
	// succeeded on a retry or hedge.
	Recovered uint64
	// Failed counts logical queries that exhausted their attempt budget
	// or hit a fatal error.
	Failed uint64
	// SidelineEvents counts health-tracker sideline transitions.
	SidelineEvents uint64
	// Backoff is the total backoff the retry schedule accounted. The
	// simulated clock does not advance mid-pass, so this is bookkeeping
	// (what a real deployment would have slept), not elapsed sim time.
	Backoff time.Duration
}

// Add returns the field-wise sum of s and o.
func (s QueryStats) Add(o QueryStats) QueryStats {
	s.Queries += o.Queries
	s.Attempts += o.Attempts
	s.Retries += o.Retries
	s.Hedges += o.Hedges
	s.Timeouts += o.Timeouts
	s.CorruptReplies += o.CorruptReplies
	s.BadResponses += o.BadResponses
	s.Recovered += o.Recovered
	s.Failed += o.Failed
	s.SidelineEvents += o.SidelineEvents
	s.Backoff += o.Backoff
	return s
}

// String renders a one-line summary.
func (s QueryStats) String() string {
	return fmt.Sprintf(
		"queries %d, attempts %d (retries %d, hedges %d), timeouts %d, corrupt %d, bad %d, recovered %d, failed %d, sidelined %d, backoff %v",
		s.Queries, s.Attempts, s.Retries, s.Hedges, s.Timeouts, s.CorruptReplies,
		s.BadResponses, s.Recovered, s.Failed, s.SidelineEvents, s.Backoff)
}

// statsCounters is the live, concurrency-safe accumulator behind
// QueryStats.
type statsCounters struct {
	queries, attempts, retries, hedges atomic.Uint64
	timeouts, corrupt, bad             atomic.Uint64
	recovered, failed                  atomic.Uint64
	backoffNanos                       atomic.Int64
}

// snapshot reads the counters; health supplies the sideline totals.
func (c *statsCounters) snapshot(h *Health) QueryStats {
	s := QueryStats{
		Queries:        c.queries.Load(),
		Attempts:       c.attempts.Load(),
		Retries:        c.retries.Load(),
		Hedges:         c.hedges.Load(),
		Timeouts:       c.timeouts.Load(),
		CorruptReplies: c.corrupt.Load(),
		BadResponses:   c.bad.Load(),
		Recovered:      c.recovered.Load(),
		Failed:         c.failed.Load(),
		Backoff:        time.Duration(c.backoffNanos.Load()),
	}
	if h != nil {
		s.SidelineEvents = h.Events()
	}
	return s
}

// fold adds one call's accumulated accounting to the counters and zeroes
// d. Fields that did not move cost no write.
func (c *statsCounters) fold(d *QueryStats) {
	add := func(a *atomic.Uint64, v uint64) {
		if v != 0 {
			a.Add(v)
		}
	}
	add(&c.queries, d.Queries)
	add(&c.attempts, d.Attempts)
	add(&c.retries, d.Retries)
	add(&c.hedges, d.Hedges)
	add(&c.timeouts, d.Timeouts)
	add(&c.corrupt, d.CorruptReplies)
	add(&c.bad, d.BadResponses)
	add(&c.recovered, d.Recovered)
	add(&c.failed, d.Failed)
	if d.Backoff != 0 {
		c.backoffNanos.Add(int64(d.Backoff))
	}
	*d = QueryStats{}
}

// reset zeroes the accumulator.
func (c *statsCounters) reset() {
	c.queries.Store(0)
	c.attempts.Store(0)
	c.retries.Store(0)
	c.hedges.Store(0)
	c.timeouts.Store(0)
	c.corrupt.Store(0)
	c.bad.Store(0)
	c.recovered.Store(0)
	c.failed.Store(0)
	c.backoffNanos.Store(0)
}
