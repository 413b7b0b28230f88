package dps

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsserver"
	"rrdps/internal/dnszone"
	"rrdps/internal/edge"
	"rrdps/internal/ipspace"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

// Plan is a customer's service plan; it determines how long a residual
// record survives before the provider purges it (§V-A.3 speculates that
// longer exposures come from non-free plans).
type Plan int

// Service plans.
const (
	PlanFree Plan = iota + 1
	PlanPaid
)

// String implements fmt.Stringer.
func (p Plan) String() string {
	switch p {
	case PlanFree:
		return "free"
	case PlanPaid:
		return "paid"
	default:
		return fmt.Sprintf("plan%d", int(p))
	}
}

// CustomerState is a customer's lifecycle state at the provider.
type CustomerState int

// Customer states.
const (
	// StateActive: protection ON; DNS answers point at edges.
	StateActive CustomerState = iota + 1
	// StatePaused: protection OFF but still on the platform; DNS answers
	// point at the origin (the exposure behind Fig. 5).
	StatePaused
	// StateTerminated: the customer left; with PolicyResidual the
	// provider keeps answering with the origin until the purge deadline.
	StateTerminated
)

// String implements fmt.Stringer.
func (s CustomerState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StatePaused:
		return "paused"
	case StateTerminated:
		return "terminated"
	default:
		return fmt.Sprintf("state%d", int(s))
	}
}

// Customer is a provider-side customer record.
type Customer struct {
	Apex   dnsmsg.Name
	Origin netip.Addr
	Method Rerouting
	Plan   Plan
	State  CustomerState

	// EdgeAddr is the edge assigned to serve this customer.
	EdgeAddr netip.Addr
	// CNAMETarget is the canonical name assigned for CNAME rerouting.
	CNAMETarget dnsmsg.Name
	// NSHosts are the nameservers assigned for NS rerouting.
	NSHosts []dnsmsg.Name

	// PurgeAt ends the residual-exposure window.
	PurgeAt time.Time
	// Notified records whether the customer explicitly told the provider
	// it was leaving (footnote 10); silent leavers keep their records
	// pointing at edges (footnote 9).
	Notified bool
}

// Assignment is what a customer receives at enrollment, to apply to its own
// DNS configuration.
type Assignment struct {
	// EdgeAddr is the edge IP (for A-based rerouting, the address the
	// customer points its A record at).
	EdgeAddr netip.Addr
	// CNAMETarget is set for CNAME rerouting.
	CNAMETarget dnsmsg.Name
	// NSHosts is set for NS rerouting: the nameservers to delegate to.
	NSHosts []dnsmsg.Name
}

// Provider errors.
var (
	ErrUnsupportedMethod = errors.New("dps: rerouting method not offered")
	ErrAlreadyEnrolled   = errors.New("dps: domain already enrolled")
	ErrUnknownCustomer   = errors.New("dps: unknown customer")
	ErrBadState          = errors.New("dps: operation invalid in current state")
)

// Config parametrizes a Provider.
type Config struct {
	Profile  Profile
	Network  *netsim.Network
	Clock    simtime.Clock
	Alloc    *ipspace.Allocator
	Registry *ipspace.Registry
	Rand     *rand.Rand

	// PoPRegions are the provider's points of presence. Defaults to all
	// regions.
	PoPRegions []netsim.Region
	// EdgeCount is the number of edge addresses. Default 4.
	EdgeCount int
	// NameserverCount is the NS-hosting pool size (only used when the
	// profile supports NS rerouting). Default 4.
	NameserverCount int
	// EdgeCacheTTL is the edges' content-cache TTL. Default 60s.
	EdgeCacheTTL time.Duration
	// PurgeDelayFree / PurgeDelayPaid bound residual-record lifetime
	// after a notified termination. Defaults: 28 days / 70 days (§V-A.3:
	// free-plan records purge at the 4th week; longer exposures are
	// attributed to other plans).
	PurgeDelayFree time.Duration
	PurgeDelayPaid time.Duration
	// RecordTTL is the TTL of customer A records. Default 5 minutes.
	RecordTTL time.Duration
	// NSRecordTTL is the TTL of delegation NS records. Default 24h.
	NSRecordTTL time.Duration
	// Scrubber, when set, filters traffic at every edge (the scrubbing
	// centers of §II-A.1). Nil admits everything.
	Scrubber edge.Scrubber
	// SharedEdgeAlloc, when set with SharedEdgeCount > 0, allocates edge
	// addresses from *outside* the provider's announced space — the
	// footnote-6 phenomenon where Akamai and CDNetworks edges hold
	// third-party (ISP) addresses, producing false OFF classifications
	// the paper eliminates.
	SharedEdgeAlloc func() netip.Addr
	// SharedEdgeCount is how many shared (off-AS) edges to add.
	SharedEdgeCount int
}

func (c *Config) applyDefaults() {
	if len(c.PoPRegions) == 0 {
		c.PoPRegions = netsim.AllRegions()
	}
	if c.EdgeCount == 0 {
		c.EdgeCount = 4
	}
	if c.NameserverCount == 0 {
		c.NameserverCount = 4
	}
	if c.EdgeCacheTTL == 0 {
		c.EdgeCacheTTL = time.Minute
	}
	if c.PurgeDelayFree == 0 {
		c.PurgeDelayFree = 28 * 24 * time.Hour
	}
	if c.PurgeDelayPaid == 0 {
		c.PurgeDelayPaid = 70 * 24 * time.Hour
	}
	if c.RecordTTL == 0 {
		c.RecordTTL = 5 * time.Minute
	}
	if c.NSRecordTTL == 0 {
		c.NSRecordTTL = 24 * time.Hour
	}
}

// Provider is a running DPS/CDN provider on the simulated Internet. It is
// safe for concurrent use.
type Provider struct {
	profile Profile
	cfg     Config
	clock   simtime.Clock

	infraZone   *dnszone.Zone
	infraServer *dnsserver.Server
	infraNS     []dnsmsg.Name
	infraNSAddr map[dnsmsg.Name]netip.Addr

	custServer *dnsserver.Server
	nsPool     []dnsmsg.Name
	nsAddr     map[dnsmsg.Name]netip.Addr

	edges []*edge.Edge

	mu        sync.Mutex
	rng       *rand.Rand
	customers map[dnsmsg.Name]*Customer
	tokenSeq  uint64
}

// New builds a provider: allocates and announces its address space, spins
// up edges and nameservers, and registers everything on the fabric.
func New(cfg Config) *Provider {
	if cfg.Network == nil || cfg.Clock == nil || cfg.Alloc == nil || cfg.Registry == nil || cfg.Rand == nil {
		panic("dps: Network, Clock, Alloc, Registry, and Rand are required")
	}
	if len(cfg.Profile.ASNs) == 0 {
		panic("dps: profile has no ASNs")
	}
	cfg.applyDefaults()

	p := &Provider{
		profile:     cfg.Profile,
		cfg:         cfg,
		clock:       cfg.Clock,
		rng:         cfg.Rand,
		infraNSAddr: make(map[dnsmsg.Name]netip.Addr),
		nsAddr:      make(map[dnsmsg.Name]netip.Addr),
		customers:   make(map[dnsmsg.Name]*Customer),
	}

	// Announce one prefix per AS; all service addresses come from the
	// first, the rest exist so A-matching sees multi-AS providers.
	prefixes := make([]netip.Prefix, 0, len(cfg.Profile.ASNs))
	for _, asn := range cfg.Profile.ASNs {
		cfg.Registry.AddAS(asn)
		prefix := cfg.Alloc.NextPrefix(20)
		cfg.Registry.MustAnnounce(asn, prefix)
		prefixes = append(prefixes, prefix)
	}
	nextHost := 0
	takeAddr := func() netip.Addr {
		a := ipspace.NthAddr(prefixes[nextHost%len(prefixes)], nextHost/len(prefixes))
		nextHost++
		return a
	}

	// Edge fleet; the last SharedEdgeCount edges live at third-party
	// addresses (footnote 6).
	totalEdges := cfg.EdgeCount + cfg.SharedEdgeCount
	for i := 0; i < totalEdges; i++ {
		region := cfg.PoPRegions[i%len(cfg.PoPRegions)]
		addr := netip.Addr{}
		if i >= cfg.EdgeCount {
			if cfg.SharedEdgeAlloc == nil {
				panic("dps: SharedEdgeCount > 0 requires SharedEdgeAlloc")
			}
			addr = cfg.SharedEdgeAlloc()
		} else {
			addr = takeAddr()
		}
		e := edge.New(edge.Config{
			Network:  cfg.Network,
			Addr:     addr,
			Region:   region,
			Clock:    cfg.Clock,
			CacheTTL: cfg.EdgeCacheTTL,
			Scrubber: cfg.Scrubber,
		})
		cfg.Network.Register(netsim.Endpoint{Addr: e.Addr(), Port: netsim.PortHTTP}, region, e)
		p.edges = append(p.edges, e)
	}

	// Infrastructure zone and its two unicast nameservers.
	p.infraZone = dnszone.New(cfg.Profile.InfraApex, dnsmsg.SOAData{
		MName:  cfg.Profile.InfraApex.Child("ns1"),
		RName:  cfg.Profile.InfraApex.Child("hostmaster"),
		Serial: 1, Minimum: 300,
	})
	p.infraServer = dnsserver.New(dnsserver.Config{UnknownZone: dnsserver.PolicyRefuse})
	p.infraServer.AddZone(p.infraZone)
	for i := 0; i < 2; i++ {
		host := cfg.Profile.InfraApex.Child(fmt.Sprintf("ns%d", i+1))
		addr := takeAddr()
		p.infraNS = append(p.infraNS, host)
		p.infraNSAddr[host] = addr
		p.infraZone.MustAdd(dnsmsg.NewNS(cfg.Profile.InfraApex, cfg.NSRecordTTL, host))
		p.infraZone.MustAdd(dnsmsg.NewA(host, cfg.NSRecordTTL, addr))
		region := cfg.PoPRegions[i%len(cfg.PoPRegions)]
		cfg.Network.Register(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}, region, p.infraServer)
	}

	// NS-hosting fleet: one logical server (central record database)
	// reachable at every pool address, anycast across all PoPs. Queries
	// for unknown zones are ignored, as the paper observes for
	// Cloudflare.
	if cfg.Profile.Supports(ReroutingNS) {
		p.custServer = dnsserver.New(dnsserver.Config{UnknownZone: dnsserver.PolicyIgnore})
		for i := 0; i < cfg.NameserverCount; i++ {
			host := p.nsHostname(i)
			addr := takeAddr()
			p.nsPool = append(p.nsPool, host)
			p.nsAddr[host] = addr
			p.infraZone.MustAdd(dnsmsg.NewA(host, cfg.NSRecordTTL, addr))
			ep := netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}
			for _, region := range cfg.PoPRegions {
				cfg.Network.RegisterAnycast(ep, region, p.custServer)
			}
		}
	}
	return p
}

// nsHostname builds the i-th pool nameserver hostname.
func (p *Provider) nsHostname(i int) dnsmsg.Name {
	base := p.profile.InfraApex
	if p.profile.NSHostLabel != "" {
		base = base.Child(p.profile.NSHostLabel)
	}
	if len(p.profile.NSGivenNames) > 0 {
		name := p.profile.NSGivenNames[i%len(p.profile.NSGivenNames)]
		if i >= len(p.profile.NSGivenNames) {
			name = fmt.Sprintf("%s%d", name, i/len(p.profile.NSGivenNames))
		}
		return base.Child(name)
	}
	return base.Child(fmt.Sprintf("ns%d", i+1))
}

// Profile returns the provider's static profile.
func (p *Provider) Profile() Profile { return p.profile }

// InfraApex returns the provider's infrastructure domain.
func (p *Provider) InfraApex() dnsmsg.Name { return p.profile.InfraApex }

// InfraNS returns the infrastructure zone's nameserver hostnames and
// addresses, for delegation from the TLDs.
func (p *Provider) InfraNS() map[dnsmsg.Name]netip.Addr {
	out := make(map[dnsmsg.Name]netip.Addr, len(p.infraNSAddr))
	for h, a := range p.infraNSAddr {
		out[h] = a
	}
	return out
}

// NSPool returns the NS-hosting pool hostnames (empty for providers
// without NS rerouting).
func (p *Provider) NSPool() []dnsmsg.Name {
	return append([]dnsmsg.Name(nil), p.nsPool...)
}

// NSPoolAddr returns the address of a pool nameserver.
func (p *Provider) NSPoolAddr(host dnsmsg.Name) (netip.Addr, bool) {
	a, ok := p.nsAddr[host]
	return a, ok
}

// EdgeAddrs returns the provider's edge addresses.
func (p *Provider) EdgeAddrs() []netip.Addr {
	out := make([]netip.Addr, len(p.edges))
	for i, e := range p.edges {
		out[i] = e.Addr()
	}
	return out
}

// Customer returns a copy of the customer record for apex.
func (p *Provider) Customer(apex dnsmsg.Name) (Customer, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.customers[apex]
	if !ok {
		return Customer{}, false
	}
	return p.copyCustomerLocked(c), true
}

func (p *Provider) copyCustomerLocked(c *Customer) Customer {
	out := *c
	out.NSHosts = append([]dnsmsg.Name(nil), c.NSHosts...)
	return out
}

// Customers returns copies of all customer records, sorted by apex.
func (p *Provider) Customers() []Customer {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Customer, 0, len(p.customers))
	for _, c := range p.customers {
		out = append(out, p.copyCustomerLocked(c))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Apex < out[j].Apex })
	return out
}

// Enroll provisions apex with the given origin, method, and plan.
func (p *Provider) Enroll(apex dnsmsg.Name, origin netip.Addr, method Rerouting, plan Plan) (Assignment, error) {
	if !p.profile.Supports(method) {
		return Assignment{}, fmt.Errorf("enrolling %s at %s via %s: %w", apex, p.profile.Key, method, ErrUnsupportedMethod)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if existing, ok := p.customers[apex]; ok {
		if existing.State != StateTerminated {
			return Assignment{}, fmt.Errorf("enrolling %s at %s: %w", apex, p.profile.Key, ErrAlreadyEnrolled)
		}
		// Re-joining customer: drop the leftover state first.
		p.removeRecordsLocked(existing)
		delete(p.customers, apex)
	}

	c := &Customer{
		Apex:   apex,
		Origin: origin,
		Method: method,
		Plan:   plan,
		State:  StateActive,
	}
	e := p.edges[p.rng.Intn(len(p.edges))]
	c.EdgeAddr = e.Addr()
	e.SetBackend(string(apex.Child("www")), origin)
	e.SetBackend(string(apex), origin)

	switch method {
	case ReroutingA:
		// Nothing provider-DNS-side.
	case ReroutingCNAME:
		c.CNAMETarget = p.newCNAMETargetLocked(apex)
		p.infraZone.MustAdd(dnsmsg.NewA(c.CNAMETarget, p.cfg.RecordTTL, c.EdgeAddr))
	case ReroutingNS:
		c.NSHosts = p.pickNSHostsLocked()
		zone := dnszone.New(apex, dnsmsg.SOAData{
			MName:  c.NSHosts[0],
			RName:  p.profile.InfraApex.Child("dns"),
			Serial: 1, Minimum: 300,
		})
		for _, h := range c.NSHosts {
			zone.MustAdd(dnsmsg.NewNS(apex, p.cfg.NSRecordTTL, h))
		}
		zone.MustAdd(dnsmsg.NewA(apex.Child("www"), p.cfg.RecordTTL, c.EdgeAddr))
		zone.MustAdd(dnsmsg.NewA(apex, p.cfg.RecordTTL, c.EdgeAddr))
		p.custServer.AddZone(zone)
	}

	p.customers[apex] = c
	return Assignment{EdgeAddr: c.EdgeAddr, CNAMETarget: c.CNAMETarget, NSHosts: append([]dnsmsg.Name(nil), c.NSHosts...)}, nil
}

func (p *Provider) newCNAMETargetLocked(apex dnsmsg.Name) dnsmsg.Name {
	p.tokenSeq++
	token := fmt.Sprintf("%08x%04d", p.rng.Uint32(), p.tokenSeq%10000)
	base := p.profile.InfraApex
	if p.profile.CNAMELabel != "" {
		base = base.Child(p.profile.CNAMELabel)
	}
	_ = apex // the token is deliberately unpredictable (paper §III-B)
	return base.Child(token)
}

func (p *Provider) pickNSHostsLocked() []dnsmsg.Name {
	if len(p.nsPool) == 1 {
		return []dnsmsg.Name{p.nsPool[0]}
	}
	i := p.rng.Intn(len(p.nsPool))
	j := p.rng.Intn(len(p.nsPool) - 1)
	if j >= i {
		j++
	}
	return []dnsmsg.Name{p.nsPool[i], p.nsPool[j]}
}

// setAnswerAddrLocked points the customer's provider-held A records at addr.
func (p *Provider) setAnswerAddrLocked(c *Customer, addr netip.Addr) {
	switch c.Method {
	case ReroutingCNAME:
		mustSet(p.infraZone, c.CNAMETarget, dnsmsg.NewA(c.CNAMETarget, p.cfg.RecordTTL, addr))
	case ReroutingNS:
		if zone, ok := p.custServer.Zone(c.Apex); ok {
			mustSet(zone, c.Apex.Child("www"), dnsmsg.NewA(c.Apex.Child("www"), p.cfg.RecordTTL, addr))
			mustSet(zone, c.Apex, dnsmsg.NewA(c.Apex, p.cfg.RecordTTL, addr))
		}
	}
}

func mustSet(z *dnszone.Zone, name dnsmsg.Name, rr dnsmsg.RR) {
	if err := z.Set(name, rr.Type(), rr); err != nil {
		panic(fmt.Sprintf("dps: %v", err))
	}
}

// removeRecordsLocked erases every provider-held trace of the customer.
func (p *Provider) removeRecordsLocked(c *Customer) {
	switch c.Method {
	case ReroutingCNAME:
		p.infraZone.RemoveName(c.CNAMETarget)
	case ReroutingNS:
		p.custServer.RemoveZone(c.Apex)
	}
	p.removeBackendsLocked(c)
}

func (p *Provider) removeBackendsLocked(c *Customer) {
	for _, e := range p.edges {
		if e.Addr() == c.EdgeAddr {
			e.RemoveBackend(string(c.Apex.Child("www")))
			e.RemoveBackend(string(c.Apex))
		}
	}
}

// UpsertHostedRecord sets a record in the customer's provider-hosted zone
// (NS rerouting only). Providers call these "unproxied" (grey-cloud)
// records: they resolve directly — bypassing the edges — which is exactly
// how forgotten subdomains and MX records leak origins (Table I vectors).
func (p *Provider) UpsertHostedRecord(apex dnsmsg.Name, rr dnsmsg.RR) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.customers[apex]
	if !ok {
		return fmt.Errorf("upserting %s at %s: %w", rr.Name, p.profile.Key, ErrUnknownCustomer)
	}
	if c.Method != ReroutingNS {
		return fmt.Errorf("upserting %s (method %s): %w", rr.Name, c.Method, ErrBadState)
	}
	zone, ok := p.custServer.Zone(apex)
	if !ok {
		return fmt.Errorf("upserting %s: zone missing: %w", rr.Name, ErrUnknownCustomer)
	}
	return zone.Set(rr.Name, rr.Type(), rr)
}

// Pause switches the customer to DNS-only mode: the provider's records now
// answer with the origin address (status OFF, Table III).
func (p *Provider) Pause(apex dnsmsg.Name) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.customers[apex]
	if !ok {
		return fmt.Errorf("pausing %s at %s: %w", apex, p.profile.Key, ErrUnknownCustomer)
	}
	if c.State != StateActive {
		return fmt.Errorf("pausing %s (state %s): %w", apex, c.State, ErrBadState)
	}
	if c.Method == ReroutingA {
		return fmt.Errorf("pausing %s (A-based): %w", apex, ErrBadState)
	}
	c.State = StatePaused
	p.setAnswerAddrLocked(c, c.Origin)
	return nil
}

// Resume re-enables protection for a paused customer.
func (p *Provider) Resume(apex dnsmsg.Name) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.customers[apex]
	if !ok {
		return fmt.Errorf("resuming %s at %s: %w", apex, p.profile.Key, ErrUnknownCustomer)
	}
	if c.State != StatePaused {
		return fmt.Errorf("resuming %s (state %s): %w", apex, c.State, ErrBadState)
	}
	c.State = StateActive
	p.setAnswerAddrLocked(c, c.EdgeAddr)
	return nil
}

// UpdateOrigin records a new origin address for the customer (the
// best-practice IP change of §IV-C.3) and repoints edge backends; paused
// customers' DNS answers follow.
func (p *Provider) UpdateOrigin(apex dnsmsg.Name, origin netip.Addr) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.customers[apex]
	if !ok {
		return fmt.Errorf("updating origin of %s at %s: %w", apex, p.profile.Key, ErrUnknownCustomer)
	}
	if c.State == StateTerminated {
		return fmt.Errorf("updating origin of %s (terminated): %w", apex, ErrBadState)
	}
	c.Origin = origin
	for _, e := range p.edges {
		if e.Addr() == c.EdgeAddr {
			e.SetBackend(string(c.Apex.Child("www")), origin)
			e.SetBackend(string(c.Apex), origin)
		}
	}
	if c.State == StatePaused {
		p.setAnswerAddrLocked(c, origin)
	}
	return nil
}

// Terminate ends the customer's service. With notified=true the provider
// applies its termination policy: PolicyClean removes everything at once;
// PolicyResidual keeps answering with the stored origin address until the
// plan's purge deadline — the residual-resolution vulnerability. With
// notified=false (the customer silently walked away, footnote 9) records
// are left untouched, still pointing at edges.
func (p *Provider) Terminate(apex dnsmsg.Name, notified bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.customers[apex]
	if !ok {
		return fmt.Errorf("terminating %s at %s: %w", apex, p.profile.Key, ErrUnknownCustomer)
	}
	if c.State == StateTerminated {
		return fmt.Errorf("terminating %s twice: %w", apex, ErrBadState)
	}
	now := p.clock.Now()
	c.State = StateTerminated
	c.Notified = notified

	if !notified {
		// Provider unaware: nothing changes until an eventual audit; model
		// that audit with the free-plan purge delay.
		c.PurgeAt = now.Add(p.cfg.PurgeDelayFree)
		return nil
	}

	switch p.profile.Termination {
	case PolicyClean:
		p.removeRecordsLocked(c)
		delete(p.customers, apex)
	case PolicyResidual:
		p.setAnswerAddrLocked(c, c.Origin)
		p.removeBackendsLocked(c)
		delay := p.cfg.PurgeDelayFree
		if c.Plan == PlanPaid {
			delay = p.cfg.PurgeDelayPaid
		}
		c.PurgeAt = now.Add(delay)
	}
	return nil
}

// AuditTerminated implements the provider-side countermeasure of §VI-B.1:
// for every terminated customer whose records are still answered, look up
// the domain's current public A records; when the stored origin no longer
// appears there — the customer is behind another DPS or moved — stop
// responding (purge immediately). lookup returns the public answers for a
// hostname (nil on failure, which leaves the record untouched: a transient
// resolution failure must not destroy continuity). Returns the purged
// apexes.
func (p *Provider) AuditTerminated(lookup func(dnsmsg.Name) []netip.Addr) []dnsmsg.Name {
	if lookup == nil {
		panic("dps: AuditTerminated requires a lookup function")
	}
	p.mu.Lock()
	var candidates []*Customer
	for _, c := range p.customers {
		if c.State == StateTerminated && c.Notified {
			candidates = append(candidates, c)
		}
	}
	p.mu.Unlock()

	var purged []dnsmsg.Name
	for _, c := range candidates {
		public := lookup(c.Apex.Child("www"))
		if public == nil {
			continue
		}
		matches := false
		for _, a := range public {
			if a == c.Origin {
				matches = true
				break
			}
		}
		if matches {
			// The public view still serves the stored origin: answering
			// preserves continuity without revealing anything new.
			continue
		}
		p.mu.Lock()
		if cur, ok := p.customers[c.Apex]; ok && cur.State == StateTerminated {
			p.removeRecordsLocked(cur)
			delete(p.customers, c.Apex)
			purged = append(purged, c.Apex)
		}
		p.mu.Unlock()
	}
	sort.Slice(purged, func(i, j int) bool { return purged[i] < purged[j] })
	return purged
}

// PurgeExpired removes the stale records of terminated customers whose
// purge deadline has passed, returning the affected apexes. The world
// advances call this daily.
func (p *Provider) PurgeExpired() []dnsmsg.Name {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	var purged []dnsmsg.Name
	for apex, c := range p.customers {
		if c.State == StateTerminated && !c.PurgeAt.After(now) {
			p.removeRecordsLocked(c)
			delete(p.customers, apex)
			purged = append(purged, apex)
		}
	}
	sort.Slice(purged, func(i, j int) bool { return purged[i] < purged[j] })
	return purged
}
