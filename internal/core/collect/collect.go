// Package collect implements the paper's DNS record collector (§IV-B.1):
// a recursive resolver that takes a daily snapshot of the A, CNAME, and NS
// records of every studied website, purging its cache before each run so
// snapshots stay independent.
package collect

import (
	"errors"
	"fmt"
	"net/netip"

	"rrdps/internal/alexa"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/obs"
	"rrdps/internal/workpool"
)

// Record is one domain's records in a snapshot.
//
// Its slices are immutable. A collector hands a record the previous
// day's slice for the same domain when the content is unchanged, so the
// same backing array can sit in many days' records and in whatever
// consumers retained: never sort, append to or overwrite them in place.
type Record struct {
	Domain alexa.Domain
	// Addrs are the A records of the www subdomain after CNAME chasing.
	Addrs []netip.Addr
	// CNAMEs is the alias chain (targets, in order) seen while resolving
	// the www subdomain.
	CNAMEs []dnsmsg.Name
	// NSHosts are the apex's NS records.
	NSHosts []dnsmsg.Name
	// ResolveOK reports whether the A/CNAME resolution succeeded; failed
	// domains (NXDOMAIN, SERVFAIL) stay in the snapshot with it false, so
	// day-over-day diffing can distinguish "gone" from "never asked".
	ResolveOK bool
	// NSOK reports whether the apex NS resolution succeeded. Consumers
	// that need the full record triple (the behaviour classifier) must
	// skip records with partial data: a lost NS answer must not demote an
	// OFF site to NONE.
	NSOK bool
}

// Collector drives daily collection runs.
type Collector struct {
	resolver *dnsresolver.Resolver
	domains  []alexa.Domain
	www      []dnsmsg.Name // domains[i]'s www name, built once
	workers  int
	obs      *obs.Registry

	// days[cur] holds the latest pass's records, indexed like domains. A
	// pass fills the other array, reusing the latest records' slices where
	// the content is unchanged, then clears the array it read from.
	// Records leave the collector by value, so the arrays never escape.
	days [2][]Record
	cur  int
}

// New creates a collector over the given domain list.
func New(resolver *dnsresolver.Resolver, domains []alexa.Domain) *Collector {
	if resolver == nil {
		panic("collect: resolver is required")
	}
	c := &Collector{resolver: resolver, domains: append([]alexa.Domain(nil), domains...), workers: 1}
	c.www = make([]dnsmsg.Name, len(c.domains))
	for i, d := range c.domains {
		c.www[i] = d.WWW()
	}
	return c
}

// SetWorkers sets the collection parallelism (default 1). The resolver and
// the fabric are safe for concurrent use; large populations collect
// several times faster with a handful of workers. Snapshots are
// value-identical to serial collection as long as the world is quiescent
// during the run (the campaign runners advance the world only between
// snapshots).
func (c *Collector) SetWorkers(n int) {
	if n < 1 {
		panic(fmt.Sprintf("collect: SetWorkers(%d)", n))
	}
	c.workers = n
}

// SetObserver installs a metrics registry on the collector and its
// resolver. Collection counters (collect.*) are derived from the
// assembled snapshot on the caller's goroutine, so they are deterministic
// regardless of worker count; the resolver's dns.* counters are volatile.
// Nil uninstalls.
func (c *Collector) SetObserver(r *obs.Registry) {
	c.obs = r
	c.resolver.SetObserver(r)
	r.DeclareCounters("collect.snapshots", "collect.domains", "collect.resolve_ok", "collect.ns_ok")
}

// CollectStream takes one snapshot labelled with day and emits each
// domain's record, in domain-list order, to emit — typically a
// snapstore.DayWriter's Put. The resolver cache is purged first, exactly
// as the paper does between daily experiments, and the resolver's
// nameserver-health tracker is checkpointed so the previous pass's
// timeout observations fold into sideline decisions while the fabric is
// quiescent. The collector retains only the latest day's records (to
// reuse their unchanged slices), so memory stays flat regardless of
// campaign length.
//
// With workers > 1 the domains fan out over a bounded pool. Each worker
// writes only its own pre-assigned slots of the collector's results
// slice — no results channel, no fan-in goroutine — and the records are
// emitted afterwards on the caller's goroutine. They are value-identical
// to serial collection because (a) each domain's record is computed by
// exactly one worker from the same quiescent world (the campaign runners
// advance the world only between snapshots), (b) the resolver's sharded
// cache only memoizes answers that are stable while the world is
// quiescent, so cache hit/miss interleaving cannot change any record's
// value, and (c) emission follows the domain list, not completion order.
func (c *Collector) CollectStream(day int, emit func(Record)) {
	for _, rec := range c.collectAll(day) {
		emit(rec)
	}
}

// collectAll runs one daily pass and returns the records in domain-list
// order (the i-th record belongs to c.domains[i]). The slice is the
// collector's and valid until its next pass.
func (c *Collector) collectAll(day int) []Record {
	span := c.obs.Tracer().StartSpan("collect", fmt.Sprintf("day %d", day))
	defer span.End()
	c.resolver.Checkpoint()
	c.resolver.PurgeCache()
	if c.days[0] == nil {
		c.days[0] = make([]Record, len(c.domains))
		c.days[1] = make([]Record, len(c.domains))
	}
	prev := c.days[c.cur]
	c.cur ^= 1
	records := c.days[c.cur]
	defer clear(prev)
	workpool.Run(c.workers, len(c.domains), func(i int) {
		records[i] = c.collectOne(i, &prev[i])
	})
	c.countRecords(span, records)
	return records
}

// countRecords accounts a completed pass. It runs on the caller's
// goroutine over the assembled (worker-order-independent) records, so the
// collect.* counters are deterministic even when collection ran parallel.
func (c *Collector) countRecords(span *obs.Span, records []Record) {
	span.SetItems(len(records))
	if c.obs == nil {
		return
	}
	var resolveOK, nsOK uint64
	for _, rec := range records {
		if rec.ResolveOK {
			resolveOK++
		}
		if rec.NSOK {
			nsOK++
		}
	}
	c.obs.Counter("collect.snapshots").Inc()
	c.obs.Counter("collect.domains").Add(uint64(len(records)))
	c.obs.Counter("collect.resolve_ok").Add(resolveOK)
	c.obs.Counter("collect.ns_ok").Add(nsOK)
}

// collectOne resolves domain i. prev is the domain's previous record (or
// a zero one); its slices are reused wherever today's content equals them,
// so an unchanged domain costs no allocation for its record.
func (c *Collector) collectOne(i int, prev *Record) Record {
	rec := Record{Domain: c.domains[i]}

	aRes, err := c.resolver.Resolve(c.www[i], dnsmsg.TypeA)
	switch {
	case err == nil:
		rec.ResolveOK = true
		rec.Addrs = reuseAddrs(prev.Addrs, aRes)
		rec.CNAMEs = reuseCNAMEs(prev.CNAMEs, aRes)
	case errors.Is(err, dnsresolver.ErrNXDomain):
		// The chain may still be informative (stale CNAME, NXDOMAIN target).
		rec.CNAMEs = reuseCNAMEs(prev.CNAMEs, aRes)
	default:
		// SERVFAIL/timeout: record stays empty.
	}

	nsRes, err := c.resolver.Resolve(rec.Domain.Apex, dnsmsg.TypeNS)
	if err == nil {
		rec.NSOK = true
		rec.NSHosts = reuseNSHosts(prev.NSHosts, nsRes)
	}
	return rec
}

// reuseAddrs returns res.Addrs(), or prev when that would be a copy of
// it.
func reuseAddrs(prev []netip.Addr, res dnsresolver.Result) []netip.Addr {
	n := 0
	for _, rr := range res.Answers {
		if a, ok := rr.Data.(dnsmsg.AData); ok {
			if n == len(prev) || prev[n] != a.Addr {
				return res.Addrs()
			}
			n++
		}
	}
	if n != len(prev) {
		return res.Addrs()
	}
	return prev
}

// reuseNSHosts is reuseAddrs for res.NSHosts().
func reuseNSHosts(prev []dnsmsg.Name, res dnsresolver.Result) []dnsmsg.Name {
	n := 0
	for _, rr := range res.Answers {
		if ns, ok := rr.Data.(dnsmsg.NSData); ok {
			if n == len(prev) || prev[n] != ns.Host {
				return res.NSHosts()
			}
			n++
		}
	}
	if n != len(prev) {
		return res.NSHosts()
	}
	return prev
}

// reuseCNAMEs is reuseAddrs for res.CNAMETargets().
func reuseCNAMEs(prev []dnsmsg.Name, res dnsresolver.Result) []dnsmsg.Name {
	if len(prev) != len(res.Chain) {
		return res.CNAMETargets()
	}
	for i, rr := range res.Chain {
		if rr.Data.(dnsmsg.CNAMEData).Target != prev[i] {
			return res.CNAMETargets()
		}
	}
	return prev
}
