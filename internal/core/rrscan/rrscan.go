// Package rrscan implements the paper's residual-resolution scanners (§V):
// direct interrogation of a provider's NS-hosting nameservers for every
// studied domain (the Cloudflare case study), and re-resolution of
// previously collected provider CNAMEs (the Incapsula case study), with
// queries spread across geographically distributed vantage points so the
// anycast fleet shares the load (Fig. 7).
package rrscan

import (
	"fmt"
	"net/netip"
	"sort"

	"rrdps/internal/alexa"
	"rrdps/internal/core/collect"
	"rrdps/internal/core/match"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dps"
	"rrdps/internal/obs"
	"rrdps/internal/workpool"
)

// NameserverDiscovery accumulates a provider's NS-hosting nameserver
// hostnames (for Cloudflare: the *.ns.cloudflare.com pool, which the
// paper finds is exclusive to NS-rerouting customers) from streamed
// records, then resolves them: feed it each record as a snapstore cursor
// yields one.
type NameserverDiscovery struct {
	profile dps.Profile
	seen    map[dnsmsg.Name]bool
}

// NewNameserverDiscovery creates a discovery pass for the profile.
func NewNameserverDiscovery(profile dps.Profile) *NameserverDiscovery {
	return &NameserverDiscovery{profile: profile, seen: make(map[dnsmsg.Name]bool)}
}

// AddRecord folds one record's NS hosts into the discovered set.
func (d *NameserverDiscovery) AddRecord(rec collect.Record) {
	for _, h := range rec.NSHosts {
		if d.seen[h] {
			continue
		}
		for _, sub := range d.profile.NSSubstrings {
			if h.ContainsSubstring(sub) {
				d.seen[h] = true
				break
			}
		}
	}
}

// Resolve returns the discovered hostnames, sorted, and each host's first
// A record (hosts that no longer resolve contribute no address).
func (d *NameserverDiscovery) Resolve(resolver *dnsresolver.Resolver) (hosts []dnsmsg.Name, addrs []netip.Addr) {
	hosts = make([]dnsmsg.Name, 0, len(d.seen))
	for h := range d.seen {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, h := range hosts {
		res, err := resolver.Resolve(h, dnsmsg.TypeA)
		if err != nil {
			continue
		}
		if as := res.Addrs(); len(as) > 0 {
			addrs = append(addrs, as[0])
		}
	}
	return hosts, addrs
}

// Scanner issues the direct scans from a set of vantage-point clients.
type Scanner struct {
	vantage []*dnsresolver.Client
	workers int
	next    int
	hedge   bool
	obs     *obs.Registry
}

// NewScanner creates a scanner over the given vantage clients (the paper
// uses five: Oregon, London, Sydney, Singapore, Tokyo). The scanner
// inherits each client's retry policy; use SetPolicy to install one
// uniformly and enable hedged scanning.
func NewScanner(vantage []*dnsresolver.Client) *Scanner {
	if len(vantage) == 0 {
		panic("rrscan: at least one vantage client is required")
	}
	return &Scanner{vantage: append([]*dnsresolver.Client(nil), vantage...), workers: 1}
}

// SetPolicy installs the retry policy on every vantage client and, when
// the policy hedges, makes each scan query offer the next nameserver in
// the rotation as a hedge candidate alongside its primary. Call between
// scans, not mid-scan.
//
// The scanner pins SelectFirst regardless of the policy's Selection: its
// own i-mod-n rotation already spreads load across the pool, and the
// candidate pair it hands each exchange is an ordered (assigned, hedge
// fallback) — letting a latency draw start at the fallback would defeat
// the rotation and break the invariant that a no-retry scan's attempts
// are a prefix of a retrying scan's.
func (s *Scanner) SetPolicy(p dnsresolver.Policy) {
	s.hedge = p.Hedge
	p.Selection = dnsresolver.SelectFirst
	for _, v := range s.vantage {
		v.SetPolicy(p)
	}
}

// SetObserver installs a metrics registry on the scanner and every
// vantage client (their dns.* counters fold into the same registry). Call
// between scans; nil uninstalls.
func (s *Scanner) SetObserver(r *obs.Registry) {
	s.obs = r
	r.DeclareCounters("scan.queries", "scan.answered")
	for _, v := range s.vantage {
		v.SetObserver(r)
	}
}

// Stats sums the resilience accounting across the vantage clients. For a
// given seed and policy the totals are identical between serial and
// parallel scans: query IDs (and therefore the fabric's content-hashed
// fault decisions) depend only on the query identity, and the sideline
// set is frozen between checkpoints.
func (s *Scanner) Stats() dnsresolver.QueryStats {
	var sum dnsresolver.QueryStats
	for _, v := range s.vantage {
		sum = sum.Add(v.Stats())
	}
	return sum
}

// Sidelined returns the union of currently sidelined nameservers across
// the vantage clients, sorted.
func (s *Scanner) Sidelined() []netip.Addr {
	seen := make(map[netip.Addr]bool)
	for _, v := range s.vantage {
		for _, addr := range v.Health().Sidelined() {
			seen[addr] = true
		}
	}
	out := make([]netip.Addr, 0, len(seen))
	for addr := range seen {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// SetWorkers sets the scan parallelism (default 1), mirroring
// collect.Collector. The i-th query keeps the exact vantage client and
// nameserver the serial rotation would assign it, so — the fabric being
// quiescent and loss-free during a scan — parallel results are
// value-identical to serial ones regardless of completion order.
func (s *Scanner) SetWorkers(n int) {
	if n < 1 {
		panic(fmt.Sprintf("rrscan: SetWorkers(%d)", n))
	}
	s.workers = n
}

// ScanDirect queries, for every domain, a provider nameserver for the www
// subdomain's A records, rotating vantage points and nameserver addresses
// to spread load. Domains whose queries are ignored (timeout) or refused
// are absent from the result.
func (s *Scanner) ScanDirect(nsAddrs []netip.Addr, domains []alexa.Domain) map[dnsmsg.Name][]netip.Addr {
	if len(nsAddrs) == 0 {
		return nil
	}
	return s.scan(nsAddrs, len(domains), func(i int) (dnsmsg.Name, dnsmsg.Name) {
		return domains[i].Apex, domains[i].WWW()
	})
}

// ScanDirectHosts is ScanDirect generalized beyond the www subdomain: it
// queries the given hostnames verbatim, keyed by hostname in the result.
// The paper's limitations section (§V-C) notes its study covers only www
// while residual resolution is universal across any DPS-served subdomain;
// this is that generalization.
func (s *Scanner) ScanDirectHosts(nsAddrs []netip.Addr, hosts []dnsmsg.Name) map[dnsmsg.Name][]netip.Addr {
	if len(nsAddrs) == 0 {
		return nil
	}
	return s.scan(nsAddrs, len(hosts), func(i int) (dnsmsg.Name, dnsmsg.Name) {
		return hosts[i], hosts[i]
	})
}

// scan runs n queries, the i-th asking nameserver nsAddrs[i%len] for the
// qname of item(i) from vantage client (next+i)%len — the same rotation the
// serial loop performs — and keys successful answers by item(i)'s key.
// With workers > 1 the indices are distributed over a bounded pool; each
// worker writes only its own slots of a pre-sized results slice, and the
// map is assembled in index order afterwards, so the outcome is
// value-identical to the serial scan.
func (s *Scanner) scan(nsAddrs []netip.Addr, n int, item func(i int) (key, qname dnsmsg.Name)) map[dnsmsg.Name][]netip.Addr {
	span := s.obs.Tracer().StartSpan("scan", fmt.Sprintf("%d queries", n))
	span.SetItems(n)
	defer span.End()
	base := s.next
	s.next += n

	// Pass boundary: fold the previous scan's health observations into
	// sideline decisions while no queries are in flight.
	for _, v := range s.vantage {
		v.Checkpoint()
	}

	results := make([][]netip.Addr, n)
	one := func(i int) {
		client := s.vantage[(base+i)%len(s.vantage)]
		_, qname := item(i)
		// The i-th query's primary nameserver follows the serial rotation;
		// under a hedging policy the next server in the rotation rides
		// along as the alternate candidate, so a sidelined or lossy
		// primary doesn't silently erase the domain from the scan.
		servers := []netip.Addr{nsAddrs[i%len(nsAddrs)]}
		if s.hedge && len(nsAddrs) > 1 {
			servers = append(servers, nsAddrs[(i+1)%len(nsAddrs)])
		}
		resp, err := client.ExchangeAny(servers, qname, dnsmsg.TypeA)
		if err != nil || resp.Header.RCode != dnsmsg.RCodeNoError {
			return
		}
		var addrs []netip.Addr
		for _, rr := range resp.AnswersOfType(dnsmsg.TypeA) {
			addrs = append(addrs, rr.Data.(dnsmsg.AData).Addr)
		}
		results[i] = addrs
	}

	workpool.Run(s.workers, n, one)

	out := make(map[dnsmsg.Name][]netip.Addr)
	for i := 0; i < n; i++ {
		if len(results[i]) == 0 {
			continue
		}
		key, _ := item(i)
		out[key] = results[i]
	}
	// Counted from the assembled results on the caller's goroutine: scan
	// answers are value-identical serial vs parallel, so these are
	// deterministic counters.
	if s.obs != nil {
		s.obs.Counter("scan.queries").Add(uint64(n))
		s.obs.Counter("scan.answered").Add(uint64(len(out)))
	}
	return out
}

// CNAMELibrary accumulates the provider CNAME targets ever observed per
// domain. The Incapsula scan keeps re-resolving them after the customer
// has moved on, because the provider deletes or rewrites the CNAME at
// termination and only a previously collected copy lets an adversary ask
// (§III-B).
type CNAMELibrary struct {
	provider dps.ProviderKey
	matcher  *match.Matcher
	workers  int
	targets  map[dnsmsg.Name]map[dnsmsg.Name]bool // apex -> set of targets
	obs      *obs.Registry
}

// NewCNAMELibrary creates a library for the provider's CNAMEs.
func NewCNAMELibrary(provider dps.ProviderKey, matcher *match.Matcher) *CNAMELibrary {
	if matcher == nil {
		panic("rrscan: matcher is required")
	}
	return &CNAMELibrary{
		provider: provider,
		matcher:  matcher,
		workers:  1,
		targets:  make(map[dnsmsg.Name]map[dnsmsg.Name]bool),
	}
}

// SetWorkers sets the ResolveAll parallelism (default 1). Each apex's
// targets still resolve in sorted order within one worker, so the per-apex
// address lists keep their serial ordering and the result is
// value-identical to a serial run.
func (l *CNAMELibrary) SetWorkers(n int) {
	if n < 1 {
		panic(fmt.Sprintf("rrscan: SetWorkers(%d)", n))
	}
	l.workers = n
}

// SetObserver installs a metrics registry for the library's cname.*
// counters and re-resolution spans; nil uninstalls.
func (l *CNAMELibrary) SetObserver(r *obs.Registry) {
	l.obs = r
	r.DeclareCounters("cname.apexes", "cname.resolved")
}

// AddRecord records one domain's provider-attributed CNAME targets, fed
// record by record from a snapstore cursor.
func (l *CNAMELibrary) AddRecord(apex dnsmsg.Name, rec collect.Record) {
	for _, target := range rec.CNAMEs {
		key, ok := l.matcher.MatchCNAME(target)
		if !ok || key != l.provider {
			continue
		}
		if l.targets[apex] == nil {
			l.targets[apex] = make(map[dnsmsg.Name]bool)
		}
		l.targets[apex][target] = true
	}
}

// Size returns the number of domains with recorded targets.
func (l *CNAMELibrary) Size() int { return len(l.targets) }

// Targets returns the recorded targets for apex.
func (l *CNAMELibrary) Targets(apex dnsmsg.Name) []dnsmsg.Name {
	set := l.targets[apex]
	out := make([]dnsmsg.Name, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Apexes returns every domain with recorded targets, sorted.
func (l *CNAMELibrary) Apexes() []dnsmsg.Name {
	out := make([]dnsmsg.Name, 0, len(l.targets))
	for apex := range l.targets {
		out = append(out, apex)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResolveAll re-resolves every recorded CNAME target and returns the A
// records obtained per apex. Targets that no longer resolve drop out. With
// SetWorkers > 1 the apexes fan out over a bounded worker pool; the
// resolver is safe for concurrent use and its sharded cache keeps the
// workers from serializing.
func (l *CNAMELibrary) ResolveAll(resolver *dnsresolver.Resolver) map[dnsmsg.Name][]netip.Addr {
	resolver.Checkpoint()
	apexes := l.Apexes()
	span := l.obs.Tracer().StartSpan("cname", fmt.Sprintf("%d apexes", len(apexes)))
	span.SetItems(len(apexes))
	defer span.End()
	results := make([][]netip.Addr, len(apexes))
	one := func(i int) {
		for _, target := range l.Targets(apexes[i]) {
			res, err := resolver.Resolve(target, dnsmsg.TypeA)
			if err != nil {
				continue
			}
			if addrs := res.Addrs(); len(addrs) > 0 {
				results[i] = append(results[i], addrs...)
			}
		}
	}
	workpool.Run(l.workers, len(apexes), one)
	out := make(map[dnsmsg.Name][]netip.Addr)
	for i, apex := range apexes {
		if len(results[i]) > 0 {
			out[apex] = results[i]
		}
	}
	if l.obs != nil {
		l.obs.Counter("cname.apexes").Add(uint64(len(apexes)))
		l.obs.Counter("cname.resolved").Add(uint64(len(out)))
	}
	return out
}
