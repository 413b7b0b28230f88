// Package dnsresolver implements an iterative (recursive-resolving) DNS
// resolver over the simulated network fabric, with a TTL cache that can be
// purged between measurement runs, plus a low-level Client for direct
// queries to specific nameservers.
//
// The resolver is the paper's "DNS record collector" substrate (§IV-B.1):
// it walks delegations from the roots, chases CNAME chains across zones,
// and caches aggressively — including NS delegations, whose long TTLs are
// precisely why stale NS records keep pointing at former DPS providers and
// make residual resolution exploitable (§VI-A).
package dnsresolver

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// Resolution errors.
var (
	// ErrNXDomain reports an authoritative denial of the name's existence.
	ErrNXDomain = errors.New("dnsresolver: NXDOMAIN")
	// ErrServFail reports that resolution could not complete (all servers
	// failed, refused, or a delegation loop/depth limit was hit).
	ErrServFail = errors.New("dnsresolver: SERVFAIL")
)

// Limits protecting against delegation and alias loops.
const (
	maxReferralHops = 16
	maxCNAMEHops    = 8
	maxDepth        = 6 // nested NS-address resolutions
)

// Result is a completed resolution.
type Result struct {
	// Question is the original (name, type) asked.
	Question dnsmsg.Question
	// Chain is the CNAME chain followed, in order, possibly empty.
	Chain []dnsmsg.RR
	// Answers holds the records of the requested type at the final name.
	// Empty with a nil error means NODATA. The slice may be shared with
	// the resolver's cache; callers must not mutate it.
	Answers []dnsmsg.RR
}

// FinalName returns the name the chain ends at (the original name when no
// CNAME was followed).
func (r Result) FinalName() dnsmsg.Name {
	if len(r.Chain) == 0 {
		return r.Question.Name
	}
	return r.Chain[len(r.Chain)-1].Data.(dnsmsg.CNAMEData).Target
}

// Addrs extracts the IPv4 addresses from A answers, or nil when there
// are none. The slice is sized by a counting pass, so it is the one
// allocation.
func (r Result) Addrs() []netip.Addr {
	n := 0
	for _, rr := range r.Answers {
		if _, ok := rr.Data.(dnsmsg.AData); ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]netip.Addr, 0, n)
	for _, rr := range r.Answers {
		if a, ok := rr.Data.(dnsmsg.AData); ok {
			out = append(out, a.Addr)
		}
	}
	return out
}

// CNAMETargets extracts the alias targets in chain order, or nil when no
// alias was followed.
func (r Result) CNAMETargets() []dnsmsg.Name {
	if len(r.Chain) == 0 {
		return nil
	}
	out := make([]dnsmsg.Name, len(r.Chain))
	for i, rr := range r.Chain {
		out[i] = rr.Data.(dnsmsg.CNAMEData).Target
	}
	return out
}

// NSHosts extracts nameserver hostnames from NS answers, or nil when
// there are none, in one allocation like Addrs.
func (r Result) NSHosts() []dnsmsg.Name {
	n := 0
	for _, rr := range r.Answers {
		if _, ok := rr.Data.(dnsmsg.NSData); ok {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]dnsmsg.Name, 0, n)
	for _, rr := range r.Answers {
		if ns, ok := rr.Data.(dnsmsg.NSData); ok {
			out = append(out, ns.Host)
		}
	}
	return out
}

// Config parametrizes a Resolver.
type Config struct {
	// Network is the fabric the resolver speaks over. Required.
	Network *netsim.Network
	// Clock drives cache expiry. Required.
	Clock simtime.Clock
	// Addr is the resolver's own address on the fabric. Required.
	Addr netip.Addr
	// Region is where the resolver sits (vantage point). Required for
	// anycast realism.
	Region netsim.Region
	// Roots are the root nameserver addresses. At least one is required.
	Roots []netip.Addr
	// Rand seeds query-ID generation. Required.
	Rand *rand.Rand
}

// Resolver is an iterative resolver with cache. Safe for concurrent use.
type Resolver struct {
	client *Client
	clock  simtime.Clock
	roots  []netip.Addr
	cache  *cache

	negTTL time.Duration
}

// resolveFrame is the reusable state of one recursion depth: the codec
// scratch its exchanges run through, and the server/host slices its
// delegation walk builds. Keeping one frame per depth lets a nested
// NS-address resolution run while the outer walk's state stays intact.
type resolveFrame struct {
	ex      exchangeScratch
	servers []netip.Addr
	hosts   []dnsmsg.Name
	addrs   []netip.Addr
}

// resolveScratch is the full per-resolution scratch: a frame for every
// recursion depth, and the resolution's query accounting and cache
// lookups, folded into the client's counters (and an installed registry)
// once when it completes. Pooled, so steady-state resolutions allocate
// nothing for plumbing. Its address is also the resolution's identity in
// the flight table, which is why one scratch never serves two resolutions
// at once.
type resolveScratch struct {
	frames  [maxDepth + 1]resolveFrame
	stats   QueryStats
	lookups lookups

	// waitFor is the resolution whose fill of waitKey this one is waiting
	// for, if any. Guarded by the flight table's waitMu.
	waitFor *resolveScratch
	waitKey cacheKey
}

var resolveScratchPool = sync.Pool{New: func() any { return new(resolveScratch) }}

// New creates a Resolver. Its client starts with NoRetryPolicy (one
// attempt per candidate server, no sidelining); the campaign runners
// install DefaultPolicy with SetPolicy.
func New(cfg Config) *Resolver {
	if cfg.Network == nil || cfg.Clock == nil || cfg.Rand == nil {
		panic("dnsresolver: Network, Clock, and Rand are required")
	}
	if len(cfg.Roots) == 0 {
		panic("dnsresolver: at least one root server is required")
	}
	return &Resolver{
		client: NewClient(cfg.Network, cfg.Addr, cfg.Region, cfg.Rand),
		clock:  cfg.Clock,
		roots:  append([]netip.Addr(nil), cfg.Roots...),
		cache:  newCache(),
		negTTL: 15 * time.Minute,
	}
}

// Client returns the resolver's underlying direct-query client.
func (r *Resolver) Client() *Client { return r.client }

// SetPolicy installs the retry policy on the underlying client.
func (r *Resolver) SetPolicy(p Policy) { r.client.SetPolicy(p) }

// Stats returns the underlying client's resilience accounting.
func (r *Resolver) Stats() QueryStats { return r.client.Stats() }

// Health returns the underlying client's nameserver health tracker.
func (r *Resolver) Health() *Health { return r.client.Health() }

// Checkpoint folds the pass's health observations into sideline state.
// The measurement loops call it at pass boundaries.
func (r *Resolver) Checkpoint() { r.client.Checkpoint() }

// PurgeCache empties the resolver's cache. The paper's collector does this
// before every daily snapshot so consecutive measurements are independent.
func (r *Resolver) PurgeCache() { r.cache.Purge() }

// Resolve performs a full recursive resolution of (name, qtype).
func (r *Resolver) Resolve(name dnsmsg.Name, qtype dnsmsg.Type) (Result, error) {
	sc := resolveScratchPool.Get().(*resolveScratch)
	res, err := r.resolve(sc, name, qtype, 0)
	r.client.stats.fold(&sc.stats, &sc.lookups)
	resolveScratchPool.Put(sc)
	return res, err
}

func (r *Resolver) resolve(sc *resolveScratch, name dnsmsg.Name, qtype dnsmsg.Type, depth int) (Result, error) {
	if depth > maxDepth {
		return Result{}, fmt.Errorf("resolving %s %s: nesting too deep: %w", name, qtype, ErrServFail)
	}
	res := Result{Question: dnsmsg.Question{Name: name, Type: qtype, Class: dnsmsg.ClassIN}}
	now := r.clock.Now()

	cur := name
	for hop := 0; hop <= maxCNAMEHops; hop++ {
		key := cacheKey{name: cur, qtype: qtype}
		e, cl := r.cache.lookupAnswer(sc, now, key)
		var leader *resolveScratch // set when this resolution leads key's fill
		if cl == claimLead {
			leader = sc
		}
		if cl == claimHit {
			res.Chain = append(res.Chain, e.chain...)
			res.Answers = e.answers
			if e.rcode == dnsmsg.RCodeNXDomain {
				return res, fmt.Errorf("resolving %s %s (cached): %w", name, qtype, ErrNXDomain)
			}
			// A cached bare CNAME (no final answers) still needs chasing.
			if len(e.answers) == 0 && len(e.chain) > 0 {
				cur = res.FinalName()
				continue
			}
			return res, nil
		}

		chain, answers, rcode, negTTL, err := r.iterate(sc, cur, qtype, depth)
		if err != nil {
			if leader != nil {
				r.cache.land(leader, key)
			}
			return res, fmt.Errorf("resolving %s %s: %w", name, qtype, err)
		}
		if rcode == dnsmsg.RCodeNXDomain {
			r.cache.putAnswer(now, key, answerEntry{rcode: rcode}, negTTL, leader)
			res.Chain = append(res.Chain, chain...)
			return res, fmt.Errorf("resolving %s %s: %w", name, qtype, ErrNXDomain)
		}

		ttl := minTTL2(chain, answers, r.negTTL)
		r.cache.putAnswer(now, key, answerEntry{chain: chain, answers: answers}, ttl, leader)
		// Feed A answers into the host-address cache for NS resolution.
		for _, rr := range answers {
			if a, ok := rr.Data.(dnsmsg.AData); ok {
				r.cache.putHostAddr(now, rr.Name, a.Addr, rr.TTL)
			}
		}

		res.Chain = append(res.Chain, chain...)
		res.Answers = answers
		if len(answers) == 0 && len(chain) > 0 && qtype != dnsmsg.TypeCNAME {
			// Bare alias: restart at the target.
			cur = res.FinalName()
			continue
		}
		return res, nil
	}
	return res, fmt.Errorf("resolving %s %s: CNAME chain too long: %w", name, qtype, ErrServFail)
}

// iterate walks delegations from the closest cached cut (or the roots)
// until an authoritative answer for (name, qtype) arrives. It returns the
// CNAME chain seen in the final answer, the answers of qtype, the response
// code, and the negative-caching TTL (from the authority SOA per RFC
// 2308, falling back to the resolver default). The returned slices are
// freshly allocated (they outlive the scratch); everything transient lives
// in sc's frame for this depth.
//
// The descent is qname-minimized (RFC 7816): each zone cut is discovered
// with a probe for the child name's NS RRset at the parent's servers,
// never by sending the full qname down the tree. Beyond the privacy
// rationale of the RFC, this is what makes resolution outcomes
// independent of cache warmth on a faulty fabric: the probe for a zone is
// the same wire payload no matter which resolution triggers it, so a
// cached delegation only ever skips queries that already succeeded, and a
// cold walk re-issuing them gets the same content-hashed fault decisions.
// With the old full-qname descent, a cold cache issued per-name ancestor
// queries a warm cache never sent, and their independent fault fates made
// serial and parallel campaigns diverge.
func (r *Resolver) iterate(sc *resolveScratch, name dnsmsg.Name, qtype dnsmsg.Type, depth int) (chain, answers []dnsmsg.RR, rcode dnsmsg.RCode, negTTL time.Duration, err error) {
	f := &sc.frames[depth]
	now := r.clock.Now()
	walkStart := r.cache.fills.Load()
	f.servers = append(f.servers[:0], r.roots...)
	servers := f.servers
	zone := dnsmsg.Name("") // the root
	// The whole walk up name's ancestry counts as one lookup.
	cut, hosts, ok := r.cache.closestDelegation(now, name)
	sc.lookups.count(ok)
	if ok {
		// hosts is cache-shared; hostAddrs only reads it.
		if addrs := r.hostAddrs(sc, hosts, nil, depth); len(addrs) > 0 {
			zone, servers = cut, addrs
		}
	}

	for hop := 0; hop < maxReferralHops; hop++ {
		if zone == name {
			break
		}
		child := nextLabel(zone, name)
		addrs, lead := r.awaitCut(sc, now, child, walkStart, depth)
		if len(addrs) > 0 {
			zone, servers = child, addrs
			continue
		}
		resp, ok := r.queryAny(&f.ex, &sc.stats, servers, child, dnsmsg.TypeNS)
		cut := ok && resp.Header.RCode == dnsmsg.RCodeNoError && r.fillCut(sc, f, now, child, resp)
		if lead && !cut { // fillCut's put lands a cut
			r.cache.land(sc, cacheKey{name: child})
		}
		if !ok {
			return nil, nil, 0, 0, fmt.Errorf("no server for %s answered: %w", child, ErrServFail)
		}
		switch resp.Header.RCode {
		case dnsmsg.RCodeNoError:
			// fallthrough below
		case dnsmsg.RCodeNXDomain:
			// RFC 8020: NXDOMAIN at an ancestor denies the whole subtree.
			return nil, nil, dnsmsg.RCodeNXDomain, r.negativeTTL(resp), nil
		default:
			return nil, nil, 0, 0, fmt.Errorf("server answered %s for %s: %w", resp.Header.RCode, child, ErrServFail)
		}

		if !cut {
			// NODATA or an alias at child: no cut there, the current
			// servers stay authoritative one label deeper.
			zone = child
			continue
		}
		// This overwrites f.addrs — the backing of `servers` when the walk
		// started from a cached cut or took a prior referral — which is
		// fine: this hop's queries are done, and `servers` is reassigned
		// before the next read. resp stays valid throughout: nested
		// resolutions run in deeper frames.
		next := r.hostAddrs(sc, f.hosts, resp.Additional, depth)
		if len(next) == 0 {
			return nil, nil, 0, 0, fmt.Errorf("no reachable nameserver for %s: %w", child, ErrServFail)
		}
		zone, servers = child, next
	}
	if zone != name {
		return nil, nil, 0, 0, fmt.Errorf("referral limit for %s: %w", name, ErrServFail)
	}

	// The full question goes only to the name's own authoritative servers.
	resp, ok := r.queryAny(&f.ex, &sc.stats, servers, name, qtype)
	if !ok {
		return nil, nil, 0, 0, fmt.Errorf("no server for %s answered: %w", name, ErrServFail)
	}
	switch resp.Header.RCode {
	case dnsmsg.RCodeNoError:
		// fallthrough below
	case dnsmsg.RCodeNXDomain:
		return splitChain(resp.Answers, name, qtype), nil, dnsmsg.RCodeNXDomain, r.negativeTTL(resp), nil
	default:
		return nil, nil, 0, 0, fmt.Errorf("server answered %s for %s: %w", resp.Header.RCode, name, ErrServFail)
	}
	if len(resp.Answers) > 0 {
		return splitChain(resp.Answers, name, qtype), finalAnswers(resp.Answers, qtype), dnsmsg.RCodeNoError, r.negTTL, nil
	}
	// Authoritative NODATA.
	return nil, nil, dnsmsg.RCodeNoError, r.negativeTTL(resp), nil
}

// awaitCut is iterate's path for the zone cut at child, about to be
// probed by a walk that began at fill sequence since. When another
// resolution landed the cut after that, it returns the cut's server
// addresses from the cache, as a walk starting now would have found
// them. Otherwise it reports whether the caller leads the probe (and must
// land it). An unusable cached cut leaves the caller's servers intact:
// hostAddrs appended nothing to the frame they may alias.
func (r *Resolver) awaitCut(sc *resolveScratch, now time.Time, child dnsmsg.Name, since uint64, depth int) (addrs []netip.Addr, lead bool) {
	hosts, cl := r.cache.joinCut(sc, now, child, since)
	if cl == claimHit {
		if addrs := r.hostAddrs(sc, hosts, nil, depth); len(addrs) > 0 {
			return addrs, false
		}
		// Unusable: probe it anyway, as the walk that found it cached at
		// its start would have.
		_, cl = r.cache.joinCut(sc, now, child, math.MaxUint64)
	}
	return nil, cl == claimLead
}

// fillCut reads the zone cut at child out of a NOERROR probe reply into
// f.hosts and caches it with the reply's glue. A cut arrives as a
// referral from the parent side, or as an authoritative NS answer when
// the queried server happens to host the child zone too (provider fleets
// serving both). It reports whether the reply held a cut.
//
// The glue goes in first: a concurrent walk that finds the cut cached
// must find its glue too, or it would resolve in-bailiwick hosts
// through the cut they are the servers of.
func (r *Resolver) fillCut(sc *resolveScratch, f *resolveFrame, now time.Time, child dnsmsg.Name, resp *dnsmsg.Message) bool {
	hosts, ttl := appendNSHosts(f.hosts[:0], resp.Authority)
	if len(hosts) == 0 {
		hosts, ttl = appendNSHosts(hosts, resp.Answers)
	}
	f.hosts = hosts
	if len(hosts) == 0 {
		return false
	}
	for _, rr := range resp.Additional {
		if a, ok := rr.Data.(dnsmsg.AData); ok {
			r.cache.putHostAddr(now, rr.Name, a.Addr, rr.TTL)
		}
	}
	r.cache.putDelegation(now, child, hosts, ttl, sc)
	return true
}

// nextLabel returns the ancestor of name exactly one label below zone —
// the next probe target of the minimized descent. zone must be an
// ancestor of name (the root is an ancestor of everything).
func nextLabel(zone, name dnsmsg.Name) dnsmsg.Name {
	n := name
	for n.Parent() != zone {
		n = n.Parent()
		if n.IsRoot() {
			panic(fmt.Sprintf("dnsresolver: %s is not an ancestor of %s", zone, name))
		}
	}
	return n
}

// negativeTTL derives the RFC 2308 negative-caching TTL from a response's
// authority SOA: min(SOA TTL, SOA minimum), clamped to the resolver
// default when absent or larger.
func (r *Resolver) negativeTTL(resp *dnsmsg.Message) time.Duration {
	for _, rr := range resp.Authority {
		soa, ok := rr.Data.(dnsmsg.SOAData)
		if !ok {
			continue
		}
		ttl := rr.TTL
		if min := time.Duration(soa.Minimum) * time.Second; min < ttl {
			ttl = min
		}
		if ttl <= 0 || ttl > r.negTTL {
			return r.negTTL
		}
		return ttl
	}
	return r.negTTL
}

// queryAny asks the candidate servers under the client's retry policy:
// sidelined servers are skipped, the policy's selection strategy picks the
// first target, attempts rotate across the rest, and with NoRetryPolicy
// this reduces to the classic try-each-server-once loop. The response
// aliases ex and is valid only until ex's next exchange.
func (r *Resolver) queryAny(ex *exchangeScratch, st *QueryStats, servers []netip.Addr, name dnsmsg.Name, qtype dnsmsg.Type) (*dnsmsg.Message, bool) {
	resp, err := r.client.exchangeAny(ex, st, servers, name, qtype)
	if err != nil {
		return nil, false
	}
	return resp, true
}

// hostAddrs maps nameserver hostnames to addresses: from the referral's
// glue in hand first, then from cache, falling back to nested resolution.
// The returned slice is backed by the depth's frame and is valid until its
// next hostAddrs call.
//
// Reading glue straight from the referral, rather than back out of the
// cache it was just put into, keeps a concurrent Purge from dropping it
// between the put and the get — a loss that sent the walk into nested
// resolution of hosts only the glue could reach, until it hit maxDepth.
// The glue lookup applies putHostAddr's rules (zero-TTL records are
// skipped, the last record per host wins), so on a quiescent cache it
// finds exactly what the cache round trip did.
func (r *Resolver) hostAddrs(sc *resolveScratch, hosts []dnsmsg.Name, glue []dnsmsg.RR, depth int) []netip.Addr {
	f := &sc.frames[depth]
	now := r.clock.Now()
	out := f.addrs[:0]
	for _, h := range hosts {
		if addr, ok := glueAddr(glue, h); ok {
			out = append(out, addr)
			continue
		}
		addr, ok := r.cache.getHostAddr(now, h)
		sc.lookups.count(ok)
		if ok {
			out = append(out, addr)
			continue
		}
		if depth >= maxDepth {
			continue // a deeper resolve would be refused anyway
		}
		sub, err := r.resolve(sc, h, dnsmsg.TypeA, depth+1)
		if err != nil {
			// The walk failed, but it may still have deposited h's glue (a
			// referral's Additional section caches host addresses even when
			// a later hop of the walk dies). Re-checking makes the host's
			// availability a function of the walk's deterministic fault
			// fates alone: without it, the first resolution to need h drops
			// it while every later one finds the glue the failed walk left
			// behind — and which resolution runs first is a scheduling
			// accident, the one thing candidate sets must not depend on.
			addr, ok := r.cache.getHostAddr(now, h)
			sc.lookups.count(ok)
			if ok {
				out = append(out, addr)
			}
			continue
		}
		for _, rr := range sub.Answers {
			if a, ok := rr.Data.(dnsmsg.AData); ok {
				out = append(out, a.Addr)
				break
			}
		}
	}
	f.addrs = out
	return out
}

// glueAddr returns the address the last cacheable (positive-TTL) A record
// for host in glue carries.
func glueAddr(glue []dnsmsg.RR, host dnsmsg.Name) (netip.Addr, bool) {
	for i := len(glue) - 1; i >= 0; i-- {
		rr := glue[i]
		if rr.Name != host || rr.TTL <= 0 {
			continue
		}
		if a, ok := rr.Data.(dnsmsg.AData); ok {
			return a.Addr, true
		}
	}
	return netip.Addr{}, false
}

// splitChain extracts the CNAME records from an answer section in chain
// order starting at qname.
func splitChain(answers []dnsmsg.RR, qname dnsmsg.Name, qtype dnsmsg.Type) []dnsmsg.RR {
	if qtype == dnsmsg.TypeCNAME {
		return nil
	}
	var chain []dnsmsg.RR
	cur := qname
	for i := 0; i < len(answers)+1; i++ {
		found := false
		for _, rr := range answers {
			if rr.Name == cur && rr.Type() == dnsmsg.TypeCNAME {
				chain = append(chain, rr)
				cur = rr.Data.(dnsmsg.CNAMEData).Target
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	return chain
}

// finalAnswers returns the records of qtype from an answer section, or
// nil when there are none, in one allocation.
func finalAnswers(answers []dnsmsg.RR, qtype dnsmsg.Type) []dnsmsg.RR {
	n := 0
	for _, rr := range answers {
		if rr.Type() == qtype {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]dnsmsg.RR, 0, n)
	for _, rr := range answers {
		if rr.Type() == qtype {
			out = append(out, rr)
		}
	}
	return out
}

// appendNSHosts appends the hosts of the NS records in rrs to dst. It
// returns the extended slice and the smallest TTL among those records
// (zero when there are none).
func appendNSHosts(dst []dnsmsg.Name, rrs []dnsmsg.RR) ([]dnsmsg.Name, time.Duration) {
	var ttl time.Duration
	start := len(dst)
	for _, rr := range rrs {
		if ns, ok := rr.Data.(dnsmsg.NSData); ok {
			if len(dst) == start || rr.TTL < ttl {
				ttl = rr.TTL
			}
			dst = append(dst, ns.Host)
		}
	}
	return dst, ttl
}

// minTTL returns the smallest TTL among rrs, or fallback when rrs is empty.
func minTTL(rrs []dnsmsg.RR, fallback time.Duration) time.Duration {
	if len(rrs) == 0 {
		return fallback
	}
	min := rrs[0].TTL
	for _, rr := range rrs[1:] {
		if rr.TTL < min {
			min = rr.TTL
		}
	}
	return min
}

// minTTL2 returns the smallest TTL across both slices, or fallback when
// both are empty — minTTL without concatenating first.
func minTTL2(a, b []dnsmsg.RR, fallback time.Duration) time.Duration {
	switch {
	case len(a) == 0:
		return minTTL(b, fallback)
	case len(b) == 0:
		return minTTL(a, fallback)
	}
	ta, tb := minTTL(a, fallback), minTTL(b, fallback)
	if ta < tb {
		return ta
	}
	return tb
}
