package world

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"sync/atomic"

	"rrdps/internal/alexa"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/dnsserver"
	"rrdps/internal/dnszone"
	"rrdps/internal/dps"
	"rrdps/internal/httpsim"
	"rrdps/internal/ipspace"
	"rrdps/internal/multicdn"
	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
	"rrdps/internal/website"
)

// World is a fully wired simulated Internet.
type World struct {
	cfg Config

	Clock    *simtime.Simulated
	Net      *netsim.Network
	Registry *ipspace.Registry
	Alloc    *ipspace.Allocator

	rootAddrs  []netip.Addr
	rootZone   *dnszone.Zone
	rootServer *dnsserver.Server
	tldServer  *dnsserver.Server
	tldZones   map[string]*dnszone.Zone

	hostingServer *dnsserver.Server
	hostingNS     []dnsmsg.Name

	providers map[dps.ProviderKey]*dps.Provider
	cedexis   *multicdn.Manager
	multiCDN  map[dnsmsg.Name]bool

	sites      []*website.Site
	siteByApex map[dnsmsg.Name]*website.Site
	// originSpaces are the ISP prefixes origins are allocated from; the
	// certificate-scanning vector sweeps them.
	originSpaces []netip.Prefix

	rng *rand.Rand
	day int

	// pausedUntil schedules RESUME days for paused sites.
	pausedUntil map[dnsmsg.Name]int

	events []Event
}

// registrar implements website.Registrar over the TLD zones.
type registrar struct{ w *World }

// SetDelegation implements website.Registrar.
func (r registrar) SetDelegation(apex dnsmsg.Name, hosts []dnsmsg.Name) error {
	labels := apex.Labels()
	if len(labels) < 2 {
		return fmt.Errorf("world: cannot delegate %q", apex)
	}
	tld := labels[len(labels)-1]
	zone, ok := r.w.tldZones[tld]
	if !ok {
		return fmt.Errorf("world: no TLD zone %q for %s", tld, apex)
	}
	rrs := make([]dnsmsg.RR, len(hosts))
	for i, h := range hosts {
		rrs[i] = dnsmsg.NewNS(apex, website.DefaultNSTTL, h)
	}
	return zone.Set(apex, dnsmsg.TypeNS, rrs...)
}

// New builds a world from cfg. Building is deterministic in cfg.Seed.
func New(cfg Config) *World {
	cfg.validate()
	w := &World{
		cfg:         cfg,
		Clock:       simtime.NewSimulated(),
		Registry:    ipspace.NewRegistry(),
		Alloc:       ipspace.NewAllocator(netip.MustParseAddr("20.0.0.0")),
		tldZones:    make(map[string]*dnszone.Zone),
		providers:   make(map[dps.ProviderKey]*dps.Provider),
		siteByApex:  make(map[dnsmsg.Name]*website.Site),
		pausedUntil: make(map[dnsmsg.Name]int),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
	}
	w.Net = netsim.New(netsim.Config{Clock: w.Clock})
	if cfg.Faults.Enabled() {
		faults := cfg.Faults
		if faults.Seed == 0 {
			faults.Seed = cfg.Seed + 9
		}
		w.Net.SetFaults(faults)
	}

	w.buildDNSBackbone()
	w.buildProviders()
	w.buildMultiCDN()
	w.buildHosting()
	w.buildSites()
	return w
}

// buildMultiCDN stands up the Cedexis-style front-end over two of the CDN
// pool providers.
func (w *World) buildMultiCDN() {
	w.multiCDN = make(map[dnsmsg.Name]bool)
	if w.cfg.MultiCDNRate <= 0 {
		return
	}
	w.cedexis = multicdn.New(multicdn.Config{
		Network:  w.Net,
		Alloc:    w.Alloc,
		Registry: w.Registry,
		Rand:     rand.New(rand.NewSource(w.cfg.Seed + 7)),
		Providers: []*dps.Provider{
			w.providers[dps.Fastly],
			w.providers[dps.Cloudfront],
		},
	})
	w.delegateInfra(multicdn.Apex, w.cedexis.NS())
}

// buildDNSBackbone creates the root and TLD zones and servers.
func (w *World) buildDNSBackbone() {
	w.rootZone = dnszone.New("", dnsmsg.SOAData{MName: "a.root-servers.net", RName: "nstld.verisign-grs.com", Serial: 1, Minimum: 300})
	w.rootServer = dnsserver.New(dnsserver.Config{Name: "root"})
	w.rootServer.AddZone(w.rootZone)
	w.tldServer = dnsserver.New(dnsserver.Config{Name: "gtld"})

	// TLD set: everything the alexa generator emits plus the TLDs of
	// provider infrastructure domains.
	tldSet := map[string]bool{}
	for _, tld := range alexa.TLDs() {
		tldSet[tld] = true
	}
	for _, p := range dps.Profiles() {
		labels := p.InfraApex.Labels()
		tldSet[labels[len(labels)-1]] = true
	}

	tlds := make([]string, 0, len(tldSet))
	for tld := range tldSet {
		tlds = append(tlds, tld)
	}
	sort.Strings(tlds)

	// Two root servers, two TLD servers (all TLD zones co-hosted, like
	// the gTLD constellations).
	for i := 0; i < 2; i++ {
		addr := w.Alloc.NextAddr()
		w.rootAddrs = append(w.rootAddrs, addr)
		host := dnsmsg.MustParseName(fmt.Sprintf("%c.root-servers.net", 'a'+i))
		w.rootZone.MustAdd(dnsmsg.NewNS("", website.DefaultNSTTL, host))
		w.rootZone.MustAdd(dnsmsg.NewA(host, website.DefaultNSTTL, addr))
		w.Net.Register(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS},
			[]netsim.Region{netsim.RegionVirginia, netsim.RegionFrankfurt}[i], w.rootServer)
	}
	gtldHosts := make([]dnsmsg.Name, 2)
	for i := 0; i < 2; i++ {
		addr := w.Alloc.NextAddr()
		gtldHosts[i] = dnsmsg.MustParseName(fmt.Sprintf("%c.gtld-servers.net", 'a'+i))
		w.rootZone.MustAdd(dnsmsg.NewA(gtldHosts[i], website.DefaultNSTTL, addr))
		w.Net.Register(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS},
			[]netsim.Region{netsim.RegionVirginia, netsim.RegionTokyo}[i], w.tldServer)
	}
	for _, tld := range tlds {
		zone := dnszone.New(dnsmsg.MustParseName(tld), dnsmsg.SOAData{
			MName: "a.gtld-servers.net", RName: "nstld.verisign-grs.com", Serial: 1, Minimum: 300,
		})
		w.tldZones[tld] = zone
		w.tldServer.AddZone(zone)
		for _, host := range gtldHosts {
			w.rootZone.MustAdd(dnsmsg.NewNS(dnsmsg.MustParseName(tld), website.DefaultNSTTL, host))
		}
	}
}

// delegateInfra wires an infrastructure apex (provider or hosting domain)
// into its TLD with glue.
func (w *World) delegateInfra(apex dnsmsg.Name, ns map[dnsmsg.Name]netip.Addr) {
	labels := apex.Labels()
	tld := labels[len(labels)-1]
	zone, ok := w.tldZones[tld]
	if !ok {
		panic(fmt.Sprintf("world: no TLD zone %q for infra %s", tld, apex))
	}
	hosts := make([]dnsmsg.Name, 0, len(ns))
	for h := range ns {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, h := range hosts {
		zone.MustAdd(dnsmsg.NewNS(apex, website.DefaultNSTTL, h))
		zone.MustAdd(dnsmsg.NewA(h, website.DefaultNSTTL, ns[h]))
	}
}

// buildProviders instantiates the eleven Table II providers and delegates
// their infrastructure zones.
func (w *World) buildProviders() {
	// A shared-hosting ISP space for the footnote-6 edges of Akamai and
	// CDNetworks.
	var sharedAlloc func() netip.Addr
	if w.cfg.SharedEdgesPerProvider > 0 {
		const sharedASN = ipspace.ASN(64550)
		w.Registry.AddAS(sharedASN, "shared-hosting-isp")
		prefix := w.Alloc.NextPrefix(22)
		w.Registry.MustAnnounce(sharedASN, prefix)
		next := 0
		sharedAlloc = func() netip.Addr {
			a := ipspace.NthAddr(prefix, next)
			next++
			return a
		}
	}

	for i, profile := range dps.Profiles() {
		cfg := dps.Config{
			Profile:         profile,
			Network:         w.Net,
			Clock:           w.Clock,
			Alloc:           w.Alloc,
			Registry:        w.Registry,
			Rand:            rand.New(rand.NewSource(w.cfg.Seed + 100 + int64(i))),
			EdgeCount:       w.cfg.EdgesPerProvider,
			NameserverCount: w.cfg.NameserversPerProvider,
			PurgeDelayFree:  w.cfg.PurgeDelayFree,
			PurgeDelayPaid:  w.cfg.PurgeDelayPaid,
			Scrubber:        w.cfg.Scrubber,
		}
		if sharedAlloc != nil && (profile.Key == dps.Akamai || profile.Key == dps.CDNetworks) {
			cfg.SharedEdgeAlloc = sharedAlloc
			cfg.SharedEdgeCount = w.cfg.SharedEdgesPerProvider
		}
		p := dps.New(cfg)
		w.providers[profile.Key] = p
		w.delegateInfra(p.InfraApex(), p.InfraNS())
		w.installNSRateLimit(p)
	}
}

// installNSRateLimit applies the configured response rate limiter to every
// nameserver endpoint the provider operates: the NS-rerouting pool and the
// infrastructure nameservers. Root, TLD, and hosting servers stay
// unlimited — the layered defense throttles the DPS fleet only.
func (w *World) installNSRateLimit(p *dps.Provider) {
	if !w.cfg.NSRateLimit.Enabled() {
		return
	}
	for _, host := range p.NSPool() {
		if addr, ok := p.NSPoolAddr(host); ok {
			w.Net.SetLimit(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}, w.cfg.NSRateLimit)
		}
	}
	for _, addr := range p.InfraNS() {
		w.Net.SetLimit(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}, w.cfg.NSRateLimit)
	}
}

// buildHosting creates the basic DNS hosting provider that serves sites'
// own zones.
func (w *World) buildHosting() {
	w.hostingServer = dnsserver.New(dnsserver.Config{Name: "webhost"})
	apex := dnsmsg.MustParseName("webhost.net")
	zone := dnszone.New(apex, dnsmsg.SOAData{MName: "ns1.webhost.net", RName: "hostmaster.webhost.net", Serial: 1, Minimum: 300})
	ns := make(map[dnsmsg.Name]netip.Addr)
	// The hosting provider announces its own small AS.
	const hostingASN = ipspace.ASN(64496)
	w.Registry.AddAS(hostingASN, "webhost")
	prefix := w.Alloc.NextPrefix(24)
	w.Registry.MustAnnounce(hostingASN, prefix)
	for i := 0; i < 2; i++ {
		host := apex.Child(fmt.Sprintf("ns%d", i+1))
		addr := ipspace.NthAddr(prefix, i)
		ns[host] = addr
		w.hostingNS = append(w.hostingNS, host)
		zone.MustAdd(dnsmsg.NewNS(apex, website.DefaultNSTTL, host))
		zone.MustAdd(dnsmsg.NewA(host, website.DefaultNSTTL, addr))
		w.Net.Register(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS},
			[]netsim.Region{netsim.RegionOregon, netsim.RegionLondon}[i], w.hostingServer)
	}
	w.hostingServer.AddZone(zone)
	w.delegateInfra(apex, ns)
}

// buildSites generates the ranked population, applies initial adoption, and
// wires each site.
func (w *World) buildSites() {
	domains := alexa.TopList(w.cfg.NumSites, rand.New(rand.NewSource(w.cfg.Seed+2)))

	// Origin addresses come from a handful of ISP ASes.
	type ispSpace struct {
		prefix netip.Prefix
		used   int
	}
	var isps []*ispSpace
	for i := 0; i < 4; i++ {
		asn := ipspace.ASN(64600 + i)
		w.Registry.AddAS(asn, fmt.Sprintf("isp%d", i+1))
		prefix := w.Alloc.NextPrefix(14)
		w.Registry.MustAnnounce(asn, prefix)
		isps = append(isps, &ispSpace{prefix: prefix})
		w.originSpaces = append(w.originSpaces, prefix)
	}
	ispIdx := 0
	newOriginAddr := func() netip.Addr {
		isp := isps[ispIdx%len(isps)]
		ispIdx++
		addr := ipspace.NthAddr(isp.prefix, isp.used)
		isp.used++
		return addr
	}

	infra := &website.Infra{
		Network:       w.Net,
		Clock:         w.Clock,
		Registrar:     registrar{w},
		Hosting:       w.hostingServer,
		HostingNS:     w.hostingNS,
		Providers:     w.providers,
		NewOriginAddr: newOriginAddr,
	}

	regions := netsim.AllRegions()
	for _, d := range domains {
		region := regions[w.rng.Intn(len(regions))]
		page := httpsim.Page{
			Title: fmt.Sprintf("%s — Home", d.Apex),
			Meta: map[string]string{
				"description": fmt.Sprintf("welcome to %s (rank %d)", d.Apex, d.Rank),
				"generator":   fmt.Sprintf("sitegen/%d.%d", 1+d.Rank%3, d.Rank%10),
			},
			Body: fmt.Sprintf("<h1>%s</h1>", d.Apex),
		}
		site, err := website.NewExposed(infra, d, region, page, w.rollExposure())
		if err != nil {
			panic(fmt.Sprintf("world: building %s: %v", d.Apex, err))
		}
		if w.rng.Float64() < w.cfg.DynamicMetaRate {
			// The counter is atomic: concurrent HTML verifications may hit
			// the same origin, and the nonce only needs to differ per
			// request, not be sequential.
			var seq atomic.Int64
			site.Origin().SetDynamicMeta(func(httpsim.RequestContext) map[string]string {
				return map[string]string{"served-at": fmt.Sprintf("t%08d", seq.Add(1))}
			})
		}
		w.sites = append(w.sites, site)
		w.siteByApex[d.Apex] = site
	}

	// Multi-CDN front-end customers (excluded from normal churn).
	if w.cedexis != nil {
		for _, site := range w.sites {
			if w.rng.Float64() >= w.cfg.MultiCDNRate {
				continue
			}
			apex := site.Domain().Apex
			token, err := w.cedexis.Enroll(apex, site.OriginAddr())
			if err != nil {
				panic(fmt.Sprintf("world: multicdn enroll %s: %v", apex, err))
			}
			if err := site.SetExternalAlias(token); err != nil {
				panic(fmt.Sprintf("world: multicdn alias %s: %v", apex, err))
			}
			w.multiCDN[apex] = true
		}
	}

	// Initial adoption.
	cutoff := w.cfg.topRankCutoff()
	restRate := w.cfg.restAdoptionRate()
	for _, site := range w.sites {
		if w.multiCDN[site.Domain().Apex] {
			continue
		}
		rate := restRate
		if site.Domain().Rank <= cutoff {
			rate = w.cfg.AdoptionTopRate
		}
		if w.rng.Float64() >= rate {
			continue
		}
		key := w.pickProvider()
		method := w.pickMethod(key)
		plan := w.pickPlan()
		if err := site.Join(key, method, plan); err != nil {
			panic(fmt.Sprintf("world: initial join %s -> %s: %v", site.Domain().Apex, key, err))
		}
		if w.rng.Float64() < w.cfg.OriginRestrictedRate {
			if err := site.RestrictToProviderEdges(); err != nil {
				panic(fmt.Sprintf("world: restricting %s: %v", site.Domain().Apex, err))
			}
		}
	}
}

// MultiCDNDomains returns the apexes fronted by the multi-CDN service.
func (w *World) MultiCDNDomains() []dnsmsg.Name {
	out := make([]dnsmsg.Name, 0, len(w.multiCDN))
	for apex := range w.multiCDN {
		out = append(out, apex)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rollExposure samples a site's Table I attack surface.
func (w *World) rollExposure() website.Exposure {
	rates := w.cfg.Exposures
	var exp website.Exposure
	if w.rng.Float64() < rates.Subdomain {
		labels := []string{"dev", "staging", "ftp", "origin", "old"}
		exp.Subdomains = []string{labels[w.rng.Intn(len(labels))]}
	}
	exp.MailRecord = w.rng.Float64() < rates.MailRecord
	exp.BodyLeak = w.rng.Float64() < rates.BodyLeak
	exp.SensitiveFile = w.rng.Float64() < rates.SensitiveFile
	exp.Certificate = w.rng.Float64() < rates.Certificate
	exp.Pingback = w.rng.Float64() < rates.Pingback
	return exp
}

// OriginSpaces returns the ISP prefixes origin addresses come from.
func (w *World) OriginSpaces() []netip.Prefix {
	return append([]netip.Prefix(nil), w.originSpaces...)
}

// pickProvider samples from the normalized share vector.
func (w *World) pickProvider() dps.ProviderKey {
	total := 0.0
	for _, share := range w.cfg.ProviderShares {
		total += share
	}
	v := w.rng.Float64() * total
	for _, key := range dps.AllKeys() {
		share, ok := w.cfg.ProviderShares[key]
		if !ok {
			continue
		}
		if v < share {
			return key
		}
		v -= share
	}
	return dps.Cloudflare
}

// pickMethod selects a rerouting method consistent with the provider's
// offerings and the paper's observed mix.
func (w *World) pickMethod(key dps.ProviderKey) dps.Rerouting {
	profile, _ := dps.ProfileFor(key)
	switch key {
	case dps.Cloudflare:
		if w.rng.Float64() < w.cfg.CloudflareNSShare {
			return dps.ReroutingNS
		}
		return dps.ReroutingCNAME
	case dps.Akamai:
		if w.rng.Float64() < w.cfg.AkamaiAShare {
			return dps.ReroutingA
		}
		return dps.ReroutingCNAME
	default:
		return profile.Methods[0]
	}
}

func (w *World) pickPlan() dps.Plan {
	if w.rng.Float64() < w.cfg.PaidPlanRate {
		return dps.PlanPaid
	}
	return dps.PlanFree
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Day returns the current simulation day (0-based).
func (w *World) Day() int { return w.day }

// Sites returns all sites in rank order.
func (w *World) Sites() []*website.Site {
	return append([]*website.Site(nil), w.sites...)
}

// Site returns the site for apex.
func (w *World) Site(apex dnsmsg.Name) (*website.Site, bool) {
	s, ok := w.siteByApex[apex]
	return s, ok
}

// Provider returns the running provider for key.
func (w *World) Provider(key dps.ProviderKey) (*dps.Provider, bool) {
	p, ok := w.providers[key]
	return p, ok
}

// Figure7Counts returns the Fig. 7 per-PoP query counts of the first
// Cloudflare NS-pool nameserver. ok is false when the world has no such
// nameserver; counts is empty while it has answered nothing.
func (w *World) Figure7Counts() (counts map[netsim.Region]uint64, ok bool) {
	prov, ok := w.providers[dps.Cloudflare]
	if !ok {
		return nil, false
	}
	pool := prov.NSPool()
	if len(pool) == 0 {
		return nil, false
	}
	addr, ok := prov.NSPoolAddr(pool[0])
	if !ok {
		return nil, false
	}
	return w.Net.QueryCounts(netsim.Endpoint{Addr: addr, Port: netsim.PortDNS}), true
}

// NewResolver creates a recursive resolver at the given vantage region,
// attached to a fresh address.
func (w *World) NewResolver(region netsim.Region) *dnsresolver.Resolver {
	return dnsresolver.New(dnsresolver.Config{
		Network: w.Net,
		Clock:   w.Clock,
		Addr:    w.Alloc.NextAddr(),
		Region:  region,
		Roots:   w.rootAddrs,
		Rand:    rand.New(rand.NewSource(w.cfg.Seed + 1000 + int64(region))),
	})
}

// NewHTTPClient creates an HTTP client at the given vantage region.
func (w *World) NewHTTPClient(region netsim.Region) *httpsim.Client {
	return httpsim.NewClient(w.Net, w.Alloc.NextAddr(), region)
}
