// Package attack simulates the DDoS scenario of Fig. 1: a botnet floods a
// website either through its DPS provider's edge (where scrubbing absorbs
// the attack) or — after residual resolution leaked the origin address —
// directly at the origin, bypassing the protection entirely.
//
// The simulation drives real HTTP requests over the fabric: bots and
// legitimate clients share the same transport, the edge's scrubbing center
// drops flagged traffic, and an origin capacity guard knocks the origin
// offline whenever per-tick load exceeds its capacity.
package attack

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"

	"rrdps/internal/httpsim"
	"rrdps/internal/netsim"
)

// RateScrubber is a scrubbing policy that limits each source address to a
// per-tick request budget; sources exceeding it are dropped for the rest
// of the tick. Legitimate clients stay far below the budget while flood
// bots blow through it immediately.
type RateScrubber struct {
	// PerSourceBudget is the number of requests a single source may issue
	// within one tick before being dropped.
	PerSourceBudget int

	mu     sync.Mutex
	counts map[netip.Addr]int
}

// NewRateScrubber creates a scrubber with the given per-tick budget.
func NewRateScrubber(budget int) *RateScrubber {
	if budget <= 0 {
		panic(fmt.Sprintf("attack: scrubber budget %d", budget))
	}
	return &RateScrubber{PerSourceBudget: budget, counts: make(map[netip.Addr]int)}
}

// Allow implements edge.Scrubber.
func (s *RateScrubber) Allow(from netip.Addr, _ string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[from]++
	return s.counts[from] <= s.PerSourceBudget
}

// Tick resets the per-source counters; call once per simulation tick.
func (s *RateScrubber) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts = make(map[netip.Addr]int)
}

// CapacityGuard wraps a server handler with a per-tick load limit: once
// more than Capacity requests arrive within one tick, further requests are
// dropped (the server is overwhelmed). It models resource exhaustion at an
// origin that a DPS would otherwise absorb.
type CapacityGuard struct {
	inner    netsim.Handler
	capacity int

	mu       sync.Mutex
	load     int
	overload bool
	// overloadTicks counts ticks during which the guard dropped traffic.
	overloadTicks int
}

// NewCapacityGuard wraps inner with a per-tick capacity.
func NewCapacityGuard(inner netsim.Handler, capacity int) *CapacityGuard {
	if inner == nil || capacity <= 0 {
		panic("attack: guard requires inner handler and positive capacity")
	}
	return &CapacityGuard{inner: inner, capacity: capacity}
}

var _ netsim.Handler = (*CapacityGuard)(nil)

// ServeNet implements netsim.Handler.
func (g *CapacityGuard) ServeNet(req netsim.Request) ([]byte, error) {
	g.mu.Lock()
	g.load++
	drop := g.load > g.capacity
	if drop && !g.overload {
		g.overload = true
		g.overloadTicks++
	}
	g.mu.Unlock()
	if drop {
		return nil, nil // exhausted: silent drop, client times out
	}
	return g.inner.ServeNet(req)
}

// Tick resets the per-tick load counter.
func (g *CapacityGuard) Tick() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.load = 0
	g.overload = false
}

// OverloadTicks returns how many ticks saw overload drops.
func (g *CapacityGuard) OverloadTicks() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.overloadTicks
}

// Botnet is a set of compromised hosts used to generate flood traffic.
type Botnet struct {
	bots    []netip.Addr
	regions []netsim.Region
}

// NewBotnet allocates n bot addresses spread across regions.
func NewBotnet(n int, alloc func() netip.Addr, rng *rand.Rand) *Botnet {
	if n <= 0 || alloc == nil || rng == nil {
		panic("attack: NewBotnet requires positive n, alloc, and rng")
	}
	b := &Botnet{}
	all := netsim.AllRegions()
	for i := 0; i < n; i++ {
		b.bots = append(b.bots, alloc())
		b.regions = append(b.regions, all[rng.Intn(len(all))])
	}
	return b
}

// Size returns the number of bots.
func (b *Botnet) Size() int { return len(b.bots) }

// Bot returns the i'th bot's address and region, so drivers outside this
// package can route per-bot traffic (e.g. the scenario-driven reflection
// load in core/experiment).
func (b *Botnet) Bot(i int) (netip.Addr, netsim.Region) {
	return b.bots[i], b.regions[i]
}

// Scenario describes one flood experiment.
type Scenario struct {
	Network *netsim.Network
	// TargetAddr is where the attacker aims (edge when protected, origin
	// when leaked by residual resolution).
	TargetAddr netip.Addr
	// TargetHost is the Host header of the flood requests.
	TargetHost string
	// Botnet generates the flood; each bot issues RequestsPerBot requests
	// per tick.
	Botnet         *Botnet
	RequestsPerBot int
	// Ticks is the number of simulation rounds.
	Ticks int
	// LegitClient issues one request per tick to measure availability; it
	// targets LegitAddr (the public view of the site).
	LegitClient *httpsim.Client
	LegitAddr   netip.Addr
	// Tickers are reset at each tick (scrubbers, capacity guards).
	Tickers []interface{ Tick() }
}

// Result summarizes a flood experiment.
type Result struct {
	// AttackSent / AttackDropped count flood requests.
	AttackSent    int
	AttackDropped int
	// LegitOK / LegitFail count the availability probes.
	LegitOK   int
	LegitFail int
}

// Availability returns the fraction of availability probes that succeeded.
func (r Result) Availability() float64 {
	total := r.LegitOK + r.LegitFail
	if total == 0 {
		return 0
	}
	return float64(r.LegitOK) / float64(total)
}

// Run executes the scenario.
func (s Scenario) Run() Result {
	if s.Network == nil || s.Botnet == nil || s.LegitClient == nil {
		panic("attack: Scenario requires Network, Botnet, and LegitClient")
	}
	if s.Ticks <= 0 || s.RequestsPerBot <= 0 {
		panic("attack: Scenario requires positive Ticks and RequestsPerBot")
	}
	var res Result
	targetEP := netsim.Endpoint{Addr: s.TargetAddr, Port: netsim.PortHTTP}
	floodReq := httpsim.EncodeRequest(httpsim.Request{Method: "GET", Path: "/", Host: s.TargetHost})

	for tick := 0; tick < s.Ticks; tick++ {
		for _, t := range s.Tickers {
			t.Tick()
		}
		// Flood phase.
		for i, bot := range s.Botnet.bots {
			for r := 0; r < s.RequestsPerBot; r++ {
				res.AttackSent++
				_, err := s.Network.Send(bot, s.Botnet.regions[i], targetEP, floodReq)
				if err != nil {
					res.AttackDropped++
				}
			}
		}
		// Availability probe.
		resp, err := s.LegitClient.Get(s.LegitAddr, s.TargetHost, "/")
		if err == nil && resp.StatusCode == 200 {
			res.LegitOK++
		} else {
			res.LegitFail++
		}
	}
	return res
}
