// Package collect implements the paper's DNS record collector (§IV-B.1):
// a recursive resolver that takes a daily snapshot of the A, CNAME, and NS
// records of every studied website, purging its cache before each run so
// snapshots stay independent.
package collect

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"rrdps/internal/alexa"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/obs"
)

// Record is one domain's records in a snapshot.
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

// Snapshot is one day's collected records.
//
// Deprecated-by-design for retention: Snapshot is the legacy map-based
// view. Since the Table V verification moved onto the snapstore diff
// stream, nothing on the production path consumes it anymore — it is
// kept for the tests, whose map-based reference pipeline and oracles pin
// the streaming engine's outputs. Code that keeps history should append
// days into a snapstore.Store and replay them through its cursors
// instead of holding Snapshots alive.
type Snapshot struct {
	Day     int
	Records map[dnsmsg.Name]Record // keyed by apex

	// apexes caches the rank-ordered apex list; snapshots from a
	// Collector share the collector's precomputed list, literals compute
	// it on first use.
	apexes []dnsmsg.Name
}

// Apexes returns the snapshot's domains in rank order. The list is
// computed at most once per snapshot (collector-built snapshots inherit
// the collector's precomputed ranking) and the returned slice is shared:
// callers must not mutate it.
func (s *Snapshot) Apexes() []dnsmsg.Name {
	if s.apexes == nil && len(s.Records) > 0 {
		out := make([]dnsmsg.Name, 0, len(s.Records))
		for apex := range s.Records {
			out = append(out, apex)
		}
		sort.Slice(out, func(i, j int) bool {
			ri, rj := s.Records[out[i]].Domain.Rank, s.Records[out[j]].Domain.Rank
			if ri != rj {
				return ri < rj
			}
			return out[i] < out[j]
		})
		s.apexes = out
	}
	return s.apexes
}

// Collector drives daily collection runs.
type Collector struct {
	resolver *dnsresolver.Resolver
	domains  []alexa.Domain
	ranked   []dnsmsg.Name // apexes in rank order, computed once
	workers  int
	obs      *obs.Registry
}

// New creates a collector over the given domain list.
func New(resolver *dnsresolver.Resolver, domains []alexa.Domain) *Collector {
	if resolver == nil {
		panic("collect: resolver is required")
	}
	c := &Collector{resolver: resolver, domains: append([]alexa.Domain(nil), domains...), workers: 1}
	// The population is fixed for the collector's lifetime, so the
	// rank-ordered apex list every snapshot serves from Apexes is
	// computed exactly once here, not once per snapshot per call.
	byRank := append([]alexa.Domain(nil), c.domains...)
	sort.Slice(byRank, func(i, j int) bool {
		if byRank[i].Rank != byRank[j].Rank {
			return byRank[i].Rank < byRank[j].Rank
		}
		return byRank[i].Apex < byRank[j].Apex
	})
	c.ranked = make([]dnsmsg.Name, len(byRank))
	for i, d := range byRank {
		c.ranked[i] = d.Apex
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
}

// Collect takes one snapshot labelled with day. The resolver cache is
// purged first, exactly as the paper does between daily experiments, and
// the resolver's nameserver-health tracker is checkpointed so the
// previous pass's timeout observations fold into sideline decisions
// while the fabric is quiescent.
//
// With workers > 1 the domains fan out over a bounded pool. Each worker
// writes only its own pre-assigned slots of a pre-sized results slice — no
// results channel, no fan-in goroutine — and the snapshot map is assembled
// afterwards on the caller's goroutine. Snapshots are value-identical to
// serial collection because (a) each domain's record is computed by exactly
// one worker from the same quiescent world (the campaign runners advance
// the world only between snapshots), (b) the resolver's sharded cache only
// memoizes answers that are stable while the world is quiescent, so cache
// hit/miss interleaving cannot change any record's value, and (c) the
// snapshot map is keyed by apex, so assembly order is irrelevant.
func (c *Collector) Collect(day int) Snapshot {
	records := c.collectAll(day)
	snap := Snapshot{Day: day, Records: make(map[dnsmsg.Name]Record, len(c.domains)), apexes: c.ranked}
	for i, d := range c.domains {
		snap.Records[d.Apex] = records[i]
	}
	return snap
}

// CollectStream is Collect without the map: it runs the same daily pass
// (same cache purge, same health checkpoint, same queries in the same
// order) and emits each domain's record, in domain-list order, to emit —
// typically a snapstore.DayWriter's Put. Nothing per-day is retained by
// the collector, so memory stays flat regardless of campaign length.
func (c *Collector) CollectStream(day int, emit func(Record)) {
	for _, rec := range c.collectAll(day) {
		emit(rec)
	}
}

// collectAll runs one daily pass and returns the records in domain-list
// order (the i-th record belongs to c.domains[i]).
func (c *Collector) collectAll(day int) []Record {
	span := c.obs.Tracer().StartSpan("collect", fmt.Sprintf("day %d", day))
	defer span.End()
	c.resolver.Checkpoint()
	c.resolver.PurgeCache()
	records := make([]Record, len(c.domains))
	if c.workers <= 1 || len(c.domains) <= 1 {
		for i, d := range c.domains {
			records[i] = c.collectOne(d)
		}
		c.countRecords(span, records)
		return records
	}

	workers := c.workers
	if workers > len(c.domains) {
		workers = len(c.domains)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(c.domains); i += workers {
				records[i] = c.collectOne(c.domains[i])
			}
		}(w)
	}
	wg.Wait()
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

func (c *Collector) collectOne(d alexa.Domain) Record {
	rec := Record{Domain: d}

	aRes, err := c.resolver.Resolve(d.WWW(), dnsmsg.TypeA)
	switch {
	case err == nil:
		rec.ResolveOK = true
		rec.Addrs = aRes.Addrs()
		rec.CNAMEs = aRes.CNAMETargets()
	case errors.Is(err, dnsresolver.ErrNXDomain):
		// The chain may still be informative (stale CNAME, NXDOMAIN target).
		rec.CNAMEs = aRes.CNAMETargets()
	default:
		// SERVFAIL/timeout: record stays empty.
	}

	nsRes, err := c.resolver.Resolve(d.Apex, dnsmsg.TypeNS)
	if err == nil {
		rec.NSOK = true
		rec.NSHosts = nsRes.NSHosts()
	}
	return rec
}

// ResolveOne performs a one-off "normal resolution" of an arbitrary
// hostname's A records, as the A-matching filter needs (§V-A.2). The cache
// is not purged: within one filtering pass, reuse is desirable.
func (c *Collector) ResolveOne(host dnsmsg.Name) ([]netip.Addr, error) {
	res, err := c.resolver.Resolve(host, dnsmsg.TypeA)
	if err != nil {
		return nil, err
	}
	return res.Addrs(), nil
}

// Resolver exposes the underlying resolver (vantage reuse by the scanner).
func (c *Collector) Resolver() *dnsresolver.Resolver { return c.resolver }

// Stats returns the underlying resolver's resilience accounting.
func (c *Collector) Stats() dnsresolver.QueryStats { return c.resolver.Stats() }

// Domains returns the collector's domain list.
func (c *Collector) Domains() []alexa.Domain {
	return append([]alexa.Domain(nil), c.domains...)
}
