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

// tallyNames names the registry counter of each tallied QueryStats field,
// in tally order.
var tallyNames = [...]string{
	"dns.queries", "dns.attempts", "dns.retries", "dns.hedges", "dns.timeouts",
	"dns.corrupt_replies", "dns.bad_responses", "dns.recovered", "dns.failed",
	"dns.backoff_ns",
}

// tally is QueryStats's per-call fields as one vector, Backoff in
// nanoseconds. SidelineEvents is not among them: the health tracker counts
// those transitions itself.
type tally [len(tallyNames)]uint64

func (s *QueryStats) tally() tally {
	return tally{s.Queries, s.Attempts, s.Retries, s.Hedges, s.Timeouts,
		s.CorruptReplies, s.BadResponses, s.Recovered, s.Failed, uint64(s.Backoff)}
}

func (t *tally) stats() QueryStats {
	return QueryStats{Queries: t[0], Attempts: t[1], Retries: t[2], Hedges: t[3],
		Timeouts: t[4], CorruptReplies: t[5], BadResponses: t[6], Recovered: t[7],
		Failed: t[8], Backoff: time.Duration(t[9])}
}

// lookups counts one resolution's cache lookups. Only a registry's
// dns.cache.* counters read them, so they are folded nowhere else.
type lookups struct{ hits, misses uint64 }

// count records one lookup.
func (l *lookups) count(hit bool) {
	if hit {
		l.hits++
	} else {
		l.misses++
	}
}

// statsCounters is the live, concurrency-safe accumulator behind
// QueryStats, and the one place a call's tally reaches shared state.
type statsCounters struct {
	v [len(tallyNames)]atomic.Uint64
	// metrics, when a registry is installed, gets every fold too.
	metrics atomic.Pointer[dnsMetrics]
}

// snapshot reads the counters; health supplies the sideline totals.
func (c *statsCounters) snapshot(h *Health) QueryStats {
	var t tally
	for i := range t {
		t[i] = c.v[i].Load()
	}
	s := t.stats()
	if h != nil {
		s.SidelineEvents = h.Events()
	}
	return s
}

// fold adds one call's tally to the counters, and with its cache lookups
// l (nil outside a resolution) to the registry's dns.* metrics when one
// is installed, then zeroes both. Fields that did not move cost no write.
func (c *statsCounters) fold(d *QueryStats, l *lookups) {
	t := d.tally()
	for i, v := range t {
		if v != 0 {
			c.v[i].Add(v)
		}
	}
	if m := c.metrics.Load(); m != nil {
		m.publish(&t, l)
	}
	*d = QueryStats{}
	if l != nil {
		*l = lookups{}
	}
}
