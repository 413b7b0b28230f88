// Package multicdn models a Cedexis-style multi-CDN front-end: a service
// that enrolls a website at several CDN providers at once and dynamically
// re-points the site's canonical name between them.
//
// The paper filters such websites out of its behaviour analysis because
// their provider flaps day over day and would read as a storm of SWITCH
// behaviours (§IV-B.3). This package exists so the pipeline's exclusion
// logic has something real to exclude.
package multicdn

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsserver"
	"rrdps/internal/dnszone"
	"rrdps/internal/dps"
	"rrdps/internal/ipspace"
	"rrdps/internal/netsim"
	"rrdps/internal/website"
)

// Apex is the front-end's service domain; its substring is what the
// measurement pipeline's exclusion heuristic looks for.
const Apex = dnsmsg.Name("cedexis.net")

// Manager errors.
var (
	ErrNeedTwoProviders = errors.New("multicdn: at least two CDN providers required")
	ErrAlreadyEnrolled  = errors.New("multicdn: domain already enrolled")
)

// customer tracks one enrolled site.
type customer struct {
	token   dnsmsg.Name
	targets []dnsmsg.Name // provider CNAME targets, one per CDN
	current int
}

// Config parametrizes a Manager.
type Config struct {
	Network  *netsim.Network
	Alloc    *ipspace.Allocator
	Registry *ipspace.Registry
	Rand     *rand.Rand
	// Providers is the CDN pool the front-end balances across; all must
	// support CNAME rerouting.
	Providers []*dps.Provider
}

// Manager is a running multi-CDN front-end. It is safe for concurrent use.
type Manager struct {
	providers []*dps.Provider
	zone      *dnszone.Zone
	server    *dnsserver.Server
	nsHosts   map[dnsmsg.Name]netip.Addr

	mu        sync.Mutex
	rng       *rand.Rand
	customers map[dnsmsg.Name]*customer
	tokenSeq  uint64
}

// New builds the front-end: its own AS, service zone, and nameservers.
func New(cfg Config) *Manager {
	if cfg.Network == nil || cfg.Alloc == nil || cfg.Registry == nil || cfg.Rand == nil {
		panic("multicdn: Network, Alloc, Registry, and Rand are required")
	}
	if len(cfg.Providers) < 2 {
		panic(ErrNeedTwoProviders)
	}
	m := &Manager{
		providers: append([]*dps.Provider(nil), cfg.Providers...),
		rng:       cfg.Rand,
		customers: make(map[dnsmsg.Name]*customer),
		nsHosts:   make(map[dnsmsg.Name]netip.Addr),
	}
	const asn = ipspace.ASN(64701)
	cfg.Registry.AddAS(asn)
	prefix := cfg.Alloc.NextPrefix(24)
	cfg.Registry.MustAnnounce(asn, prefix)

	m.zone = dnszone.New(Apex, dnsmsg.SOAData{
		MName: Apex.Child("ns1"), RName: Apex.Child("hostmaster"), Serial: 1, Minimum: 300,
	})
	m.server = dnsserver.New(dnsserver.Config{})
	m.server.AddZone(m.zone)
	for i := 0; i < 2; i++ {
		host := Apex.Child(fmt.Sprintf("ns%d", i+1))
		addr := ipspace.NthAddr(prefix, i)
		m.nsHosts[host] = addr
		m.zone.MustAdd(dnsmsg.NewNS(Apex, website.DefaultNSTTL, host))
		m.zone.MustAdd(dnsmsg.NewA(host, website.DefaultNSTTL, addr))
		region := []netsim.Region{netsim.RegionVirginia, netsim.RegionSingapore}[i]
		cfg.Network.Register(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}, region, m.server)
	}
	return m
}

// NS returns the front-end's nameserver hostnames and addresses, for TLD
// delegation.
func (m *Manager) NS() map[dnsmsg.Name]netip.Addr {
	out := make(map[dnsmsg.Name]netip.Addr, len(m.nsHosts))
	for h, a := range m.nsHosts {
		out[h] = a
	}
	return out
}

// Enroll registers apex with origin at every CDN in the pool and returns
// the front-end alias the customer should point its www record at.
func (m *Manager) Enroll(apex dnsmsg.Name, origin netip.Addr) (dnsmsg.Name, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.customers[apex]; ok {
		return "", fmt.Errorf("enrolling %s: %w", apex, ErrAlreadyEnrolled)
	}
	c := &customer{}
	for _, p := range m.providers {
		asg, err := p.Enroll(apex, origin, dps.ReroutingCNAME, dps.PlanPaid)
		if err != nil {
			return "", fmt.Errorf("enrolling %s at %s: %w", apex, p.Profile().Key, err)
		}
		c.targets = append(c.targets, asg.CNAMETarget)
	}
	m.tokenSeq++
	c.token = Apex.Child(fmt.Sprintf("opt-%06x%03d", m.rng.Uint32()&0xFFFFFF, m.tokenSeq%1000))
	c.current = m.rng.Intn(len(c.targets))
	m.zone.MustAdd(dnsmsg.NewCNAME(c.token, website.DefaultATTL, c.targets[c.current]))
	m.customers[apex] = c
	return c.token, nil
}

// FlipAll re-evaluates every customer's CDN selection; each flips to a
// different provider with probability flipProb. Returns how many flipped.
func (m *Manager) FlipAll(flipProb float64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	flipped := 0
	apexes := make([]dnsmsg.Name, 0, len(m.customers))
	for apex := range m.customers {
		apexes = append(apexes, apex)
	}
	sort.Slice(apexes, func(i, j int) bool { return apexes[i] < apexes[j] })
	for _, apex := range apexes {
		c := m.customers[apex]
		if m.rng.Float64() >= flipProb {
			continue
		}
		next := m.rng.Intn(len(c.targets) - 1)
		if next >= c.current {
			next++
		}
		c.current = next
		mustSet(m.zone, dnsmsg.NewCNAME(c.token, website.DefaultATTL, c.targets[c.current]))
		flipped++
	}
	return flipped
}

func mustSet(z *dnszone.Zone, rr dnsmsg.RR) {
	if err := z.Set(rr.Name, rr.Type(), rr); err != nil {
		panic(fmt.Sprintf("multicdn: %v", err))
	}
}
