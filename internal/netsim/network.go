// Package netsim implements the message fabric of the simulated Internet.
//
// The fabric is a request/response (UDP-RPC-like) transport keyed by
// (IP address, port). Services — authoritative nameservers, web origins,
// CDN edges — register Handlers at endpoints; clients Send opaque payloads
// and receive opaque replies. Anycast endpoints register one handler per
// point of presence (PoP) and the fabric routes each request to the PoP
// nearest to the sender's region, mirroring how Cloudflare's anycast DNS
// spreads load across PoPs (paper §V-A.1, Fig. 7).
//
// The fabric also provides failure injection — per-endpoint blackholing
// and the deterministic FaultConfig plan (seeded uniform loss, burst
// windows, per-endpoint flakiness, reply corruption) — plus per-endpoint
// accounting used by the Fig. 7 experiment.
package netsim

import (
	"errors"
	"fmt"
	"maps"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known ports on the simulated Internet.
const (
	PortDNS  = 53
	PortHTTP = 80
)

// Errors returned by Network.Send.
var (
	// ErrUnreachable indicates no handler is registered at the endpoint.
	ErrUnreachable = errors.New("netsim: destination unreachable")
	// ErrTimeout indicates the request or response was dropped (injected
	// loss or blackholed endpoint).
	ErrTimeout = errors.New("netsim: request timed out")
)

// Endpoint identifies a service attachment point.
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

// String implements fmt.Stringer.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Request is what a Handler receives.
type Request struct {
	// From is the sender's address (may be a vantage point or resolver).
	From netip.Addr
	// FromRegion is the sender's region, used for anycast routing and
	// available to handlers (e.g., for geo-aware answers).
	FromRegion Region
	// To is the destination address the sender targeted. For anycast
	// endpoints every PoP sees the same To.
	To Endpoint
	// PoPRegion is the region of the PoP that received the request. For
	// unicast endpoints it is the handler's registration region.
	PoPRegion Region
	// Payload is the opaque request body (e.g., a DNS wire-format message).
	Payload []byte
	// Time is the fabric's simulation time when the request was delivered.
	Time time.Time
}

// Handler processes a request and returns a response payload.
//
// Returning a nil payload with a nil error models a server that silently
// ignores the query (the paper observes Cloudflare nameservers ignoring
// queries for unknown zones); the fabric converts it to ErrTimeout on the
// client side.
type Handler interface {
	ServeNet(req Request) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req Request) ([]byte, error)

// ServeNet implements Handler.
func (f HandlerFunc) ServeNet(req Request) ([]byte, error) { return f(req) }

var _ Handler = HandlerFunc(nil)

// clockface is the minimal clock dependency of the fabric.
type clockface interface{ Now() time.Time }

// popInstance is one registered instance behind an endpoint.
type popInstance struct {
	region  Region
	handler Handler
}

// endpointState is one endpoint's routing state and accounting.
type endpointState struct {
	// route is replaced whole, never mutated, by Register,
	// RegisterAnycast, Deregister, SetBlackholed and SetLimit; Exchange
	// reads it without a lock.
	route atomic.Pointer[route]
	// queries counts delivered queries per PoP region. It is allocated at
	// the first delivery: most endpoints a long campaign accumulates are
	// retired origin addresses that never serve one.
	queries atomic.Pointer[popCounts]
}

// popCounts is one endpoint's delivered-query counters, by PoP region.
type popCounts [regionCount]atomic.Uint64

// served counts one query delivered to the endpoint's PoP in region.
func (st *endpointState) served(region Region) {
	q := st.queries.Load()
	if q == nil {
		st.queries.CompareAndSwap(nil, new(popCounts))
		q = st.queries.Load()
	}
	q[region].Add(1)
}

// route is an endpoint's routing decision inputs at one point in time.
type route struct {
	instances  []popInstance
	blackholed bool
	limit      *limitState // response rate limiter, nil when none
	// nearest, set for anycast endpoints only, indexes the instance a
	// sender in each region reaches: the nearest PoP, ties to the earliest
	// registered. Distances are a pure function of the two regions, so
	// this is fixed once instances are. A sender outside the placed
	// regions is maximally distant from every PoP and reaches the first.
	nearest *[regionCount]uint8
}

// withInstances returns a copy of rt (nil for none) serving instances,
// with the nearest-PoP table recomputed.
func (rt *route) withInstances(instances []popInstance) *route {
	next := &route{}
	if rt != nil {
		next.blackholed, next.limit = rt.blackholed, rt.limit
	}
	next.instances = instances
	if len(instances) < 2 {
		return next
	}
	next.nearest = new([regionCount]uint8)
	for r := range next.nearest {
		best, bestDist := 0, Distance(Region(r), instances[0].region)
		for i, cand := range instances[1:] {
			if d := Distance(Region(r), cand.region); d < bestDist {
				best, bestDist = i+1, d
			}
		}
		next.nearest[r] = uint8(best)
	}
	return next
}

// clone returns a copy of rt (nil for none) for changing one field.
func (rt *route) clone() *route {
	if rt == nil {
		return &route{}
	}
	next := *rt
	return &next
}

// pick returns the instance a sender in fromRegion reaches.
func (rt *route) pick(fromRegion Region) popInstance {
	if rt.nearest == nil || !fromRegion.indexable() {
		return rt.instances[0]
	}
	return rt.instances[rt.nearest[fromRegion]]
}

// Config parametrizes a Network.
type Config struct {
	// Clock supplies request timestamps. Required.
	Clock clockface
}

// Network is the simulated message fabric. It is safe for concurrent use.
//
// Exchange takes no process-wide lock. It looks endpoints up in a
// published table of the endpoints sends have reached, reads each
// endpoint's route through an atomic pointer, and counts with atomics.
// Routing changes — registrations, blackholing, limits — happen between
// measurement passes while the fabric is quiescent. A change to an
// existing endpoint swaps its route. An endpoint not yet in the table is
// found under the lock and queued for it; the table is republished once
// such lookups add up to its size, so the copy costs O(1) amortized per
// lookup, and endpoints no send reaches (retired origin addresses) never
// enter it. Each rate limiter's counters keep their lock: a limiter
// decides by arrival order.
type Network struct {
	clock clockface

	// table is the published endpoint table Exchange reads: the
	// endpoints lookups have reached, as of the last republish.
	table atomic.Pointer[map[Endpoint]*endpointState]

	mu        sync.Mutex
	endpoints map[Endpoint]*endpointState
	pending   map[Endpoint]*endpointState // reached, not yet in table
	misses    int                         // lookups served from endpoints since the last republish

	faults atomic.Pointer[FaultConfig]

	sends, drops, limitDrops atomic.Uint64
	uniformDrops, burstDrops atomic.Uint64
	flakyDrops, corrupted    atomic.Uint64
}

// New creates a Network. It panics if cfg.Clock is nil, a programming
// error in the composition root rather than a runtime condition.
func New(cfg Config) *Network {
	if cfg.Clock == nil {
		panic("netsim: Config.Clock is required")
	}
	n := &Network{
		clock:     cfg.Clock,
		endpoints: make(map[Endpoint]*endpointState),
		pending:   make(map[Endpoint]*endpointState),
	}
	n.faults.Store(&FaultConfig{})
	n.table.Store(&map[Endpoint]*endpointState{})
	return n
}

// lookup returns ep's state, or nil when nothing was ever attached there.
func (n *Network) lookup(ep Endpoint) *endpointState {
	if st, ok := (*n.table.Load())[ep]; ok {
		return st
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	st, ok := n.endpoints[ep]
	if !ok {
		return nil
	}
	n.pending[ep] = st
	n.misses++
	if t := *n.table.Load(); n.misses >= len(t) {
		m := maps.Clone(t)
		maps.Copy(m, n.pending)
		n.table.Store(&m)
		clear(n.pending)
		n.misses = 0
	}
	return st
}

// checkRegion panics on a region outside the placed set; handlers are
// registered by the composition root, so one is a programming error.
func checkRegion(region Region) {
	if !region.indexable() {
		panic(fmt.Sprintf("netsim: unknown region %d", region))
	}
}

// Register attaches a unicast handler at ep located in region. Registering
// a second unicast handler at the same endpoint replaces the first (the
// address was reassigned), mirroring real IP churn.
func (n *Network) Register(ep Endpoint, region Region, h Handler) {
	if h == nil {
		panic("netsim: Register with nil handler")
	}
	checkRegion(region)
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.ensureEndpointLocked(ep)
	st.route.Store(st.route.Load().withInstances([]popInstance{{region: region, handler: h}}))
}

// RegisterAnycast adds an anycast PoP instance for ep in region. Multiple
// PoPs may share the endpoint; requests route to the nearest PoP. Adding a
// PoP in a region that already has one replaces that PoP's handler.
func (n *Network) RegisterAnycast(ep Endpoint, region Region, h Handler) {
	if h == nil {
		panic("netsim: RegisterAnycast with nil handler")
	}
	checkRegion(region)
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.ensureEndpointLocked(ep)
	rt := st.route.Load()
	var instances []popInstance
	if rt != nil {
		instances = append(instances, rt.instances...)
	}
	replaced := false
	for i := range instances {
		if instances[i].region == region {
			instances[i].handler = h
			replaced = true
			break
		}
	}
	if !replaced {
		instances = append(instances, popInstance{region: region, handler: h})
	}
	st.route.Store(rt.withInstances(instances))
}

// Deregister removes every handler at ep. Subsequent sends fail with
// ErrUnreachable. Accounting for the endpoint is retained.
func (n *Network) Deregister(ep Endpoint) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.endpoints[ep]; ok {
		st.route.Store(st.route.Load().withInstances(nil))
	}
}

// SetBlackholed marks ep as silently dropping all traffic (or restores it).
// Blackholed endpoints model hosts knocked offline, e.g. by a DDoS flood.
func (n *Network) SetBlackholed(ep Endpoint, blackholed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.ensureEndpointLocked(ep)
	rt := st.route.Load().clone()
	rt.blackholed = blackholed
	st.route.Store(rt)
}

// ensureEndpointLocked returns ep's state, creating it on first use.
// Caller holds n.mu.
func (n *Network) ensureEndpointLocked(ep Endpoint) *endpointState {
	st, ok := n.endpoints[ep]
	if !ok {
		st = &endpointState{}
		n.endpoints[ep] = st
	}
	return st
}

// Send delivers payload from (from, fromRegion) to the endpoint and returns
// the handler's response. Anycast endpoints route to the nearest PoP.
func (n *Network) Send(from netip.Addr, fromRegion Region, to Endpoint, payload []byte) ([]byte, error) {
	resp, _, err := n.Exchange(from, fromRegion, to, payload, nil)
	return resp, err
}

// QueryCounts returns a copy of the per-PoP query counters for ep: one
// entry per PoP region that has served a query.
func (n *Network) QueryCounts(ep Endpoint) map[Region]uint64 {
	st := n.lookup(ep)
	if st == nil {
		return nil
	}
	return st.counts()
}

// counts returns the nonzero per-PoP counters (nil when the endpoint
// never served a query).
func (st *endpointState) counts() map[Region]uint64 {
	q := st.queries.Load()
	if q == nil {
		return nil
	}
	out := make(map[Region]uint64)
	for r := range q {
		if c := q[r].Load(); c > 0 {
			out[Region(r)] = c
		}
	}
	return out
}

// Stats reports fabric-wide counters.
func (n *Network) Stats() (sends, drops uint64) {
	return n.sends.Load(), n.drops.Load()
}
