package attack

import (
	"net/netip"

	"rrdps/internal/httpsim"
	"rrdps/internal/netsim"
)

// The paper's introduction describes the modern DDoS arsenal: botnets
// sending traffic "directly or indirectly by leveraging the reflectors
// (e.g., NTP servers or DNS open resolvers)". This file models the
// indirect path: an open resolver that answers small spoofed queries with
// amplified responses aimed at the victim.

// OpenResolver is an abusable reflector on the fabric. A query whose
// (spoofed) source address is the victim makes the resolver deliver
// Amplification response units to that address — the victim — while the
// actual sender pays for one small packet.
type OpenResolver struct {
	net  *netsim.Network
	addr netip.Addr
	// Amplification is how many response units one query generates (DNS
	// amplification factors of 30-50x are typical; NTP's monlist reached
	// hundreds).
	amplification int
	// victimPort is where the junk lands on the spoofed source.
	victimPort uint16
}

// NewOpenResolver registers an open resolver at addr. Amplified responses
// are delivered to the spoofed source's victimPort.
func NewOpenResolver(net *netsim.Network, addr netip.Addr, region netsim.Region, amplification int, victimPort uint16) *OpenResolver {
	if net == nil || amplification <= 0 {
		panic("attack: NewOpenResolver requires network and positive amplification")
	}
	r := &OpenResolver{
		net:           net,
		addr:          addr,
		amplification: amplification,
		victimPort:    victimPort,
	}
	net.Register(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}, region, r)
	return r
}

var _ netsim.Handler = (*OpenResolver)(nil)

// Addr returns the resolver's address.
func (r *OpenResolver) Addr() netip.Addr { return r.addr }

// ServeNet implements netsim.Handler: every query is answered toward the
// *claimed* source — the essence of reflection. The caller (the spoofing
// bot) gets nothing back.
func (r *OpenResolver) ServeNet(req netsim.Request) ([]byte, error) {
	target := netsim.Endpoint{Addr: req.From, Port: r.victimPort}
	payload := append([]byte("amplified-response:"), req.Payload...)
	for i := 0; i < r.amplification; i++ {
		// Delivery failures (victim already down) still count as emitted
		// traffic; the wire was filled either way.
		_, _ = r.net.Send(r.addr, req.PoPRegion, target, payload)
	}
	return nil, nil
}

// ReflectionScenario floods a victim indirectly: each bot sends spoofed
// queries (source = victim) to the open resolvers, which amplify onto the
// victim.
type ReflectionScenario struct {
	Network *netsim.Network
	// VictimAddr is the spoofed source — where amplified traffic lands.
	VictimAddr netip.Addr
	// VictimHost is used for availability probes.
	VictimHost string
	// Resolvers are the abusable reflectors.
	Resolvers []*OpenResolver
	// Botnet issues RequestsPerBot spoofed queries per tick.
	Botnet         *Botnet
	RequestsPerBot int
	Ticks          int
	// LegitClient probes LegitAddr once per tick.
	LegitClient *httpsim.Client
	LegitAddr   netip.Addr
	Tickers     []interface{ Tick() }
}

// Run executes the reflection flood.
func (s ReflectionScenario) Run() Result {
	if s.Network == nil || s.Botnet == nil || s.LegitClient == nil || len(s.Resolvers) == 0 {
		panic("attack: ReflectionScenario requires Network, Botnet, LegitClient, and Resolvers")
	}
	if s.Ticks <= 0 || s.RequestsPerBot <= 0 {
		panic("attack: ReflectionScenario requires positive Ticks and RequestsPerBot")
	}
	var res Result
	query := []byte("ANY? large.zone.example")

	for tick := 0; tick < s.Ticks; tick++ {
		for _, t := range s.Tickers {
			t.Tick()
		}
		for i := range s.Botnet.bots {
			for r := 0; r < s.RequestsPerBot; r++ {
				res.AttackSent++
				resolver := s.Resolvers[(i+r)%len(s.Resolvers)]
				// The bot spoofs the victim as its source address; the
				// fabric carries source addresses verbatim (no BCP38 on
				// this simulated Internet).
				ep := netsim.Endpoint{Addr: resolver.Addr(), Port: netsim.PortDNS}
				_, err := s.Network.Send(s.VictimAddr, s.Botnet.regions[i], ep, query)
				if err != nil {
					res.AttackDropped++
				}
			}
		}
		resp, err := s.LegitClient.Get(s.LegitAddr, s.VictimHost, "/")
		if err == nil && resp.StatusCode == 200 {
			res.LegitOK++
		} else {
			res.LegitFail++
		}
	}
	return res
}
