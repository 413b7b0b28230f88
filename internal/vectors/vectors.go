// Package vectors implements the eight origin-exposure attack vectors of
// the paper's Table I (studied in depth by Vissers et al., CCS'15, and
// summarized as background in §II-B). Each scanner takes a target domain
// protected by a DPS and tries to recover the hidden origin address
// through a different side channel; residual resolution (internal/core/
// rrscan) is the ninth vector this paper adds.
package vectors

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"rrdps/internal/core/match"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnsresolver"
	"rrdps/internal/httpsim"
	"rrdps/internal/ipspace"
	"rrdps/internal/netsim"
	"rrdps/internal/pdns"
	"rrdps/internal/website"
)

// Vector identifies one Table I attack vector.
type Vector int

// The Table I attack vectors, in table order.
const (
	IPHistory Vector = iota + 1
	Subdomains
	DNSRecords
	TemporaryExposure
	SSLCertificates
	SensitiveFiles
	OriginInContent
	OutboundConnection
)

// String implements fmt.Stringer.
func (v Vector) String() string {
	switch v {
	case IPHistory:
		return "ip-history"
	case Subdomains:
		return "subdomains"
	case DNSRecords:
		return "dns-records"
	case TemporaryExposure:
		return "temporary-exposure"
	case SSLCertificates:
		return "ssl-certificates"
	case SensitiveFiles:
		return "sensitive-files"
	case OriginInContent:
		return "origin-in-content"
	case OutboundConnection:
		return "outbound-connection"
	default:
		return fmt.Sprintf("vector%d", int(v))
	}
}

// AllVectors lists the vectors in Table I order.
func AllVectors() []Vector {
	return []Vector{
		IPHistory, Subdomains, DNSRecords, TemporaryExposure,
		SSLCertificates, SensitiveFiles, OriginInContent, OutboundConnection,
	}
}

// Finding is one vector's candidate origin addresses for a target.
type Finding struct {
	Vector     Vector
	Apex       dnsmsg.Name
	Candidates []netip.Addr
	// Note carries human-readable evidence ("found in /backup.cfg").
	Note string
}

// DefaultSubdomainWordlist is the bruteforce list the subdomain scanner
// probes, mirroring common unprotected-subdomain hunting lists.
func DefaultSubdomainWordlist() []string {
	return []string{
		"mail", "dev", "staging", "test", "ftp", "admin", "vpn",
		"origin", "direct", "old", "beta", "api",
	}
}

// Config parametrizes a Scanner.
type Config struct {
	// Network is the fabric (TLS probes, callback listener). Required.
	Network *netsim.Network
	// Resolver performs the scanner's DNS lookups. Required.
	Resolver *dnsresolver.Resolver
	// HTTP fetches pages and files. Required.
	HTTP *httpsim.Client
	// Matcher distinguishes DPS edge addresses from candidate origins.
	// Required.
	Matcher *match.Matcher
	// Archive is the passive-DNS database for the IP-history vector;
	// optional (vector reports nothing without it).
	Archive *pdns.Archive
	// ScanSpaces are the prefixes the certificate scanner sweeps;
	// optional.
	ScanSpaces []netip.Prefix
	// ListenAddr is where the outbound-connection listener sits. Required
	// for the outbound vector.
	ListenAddr netip.Addr
	// Region locates the scanner's probes.
	Region netsim.Region
	// Wordlist overrides the subdomain bruteforce list.
	Wordlist []string
}

// Scanner runs the Table I vectors against targets.
type Scanner struct {
	cfg      Config
	listener *CallbackListener
}

// New creates a scanner and registers its callback listener (when
// ListenAddr is set).
func New(cfg Config) *Scanner {
	if cfg.Network == nil || cfg.Resolver == nil || cfg.HTTP == nil || cfg.Matcher == nil {
		panic("vectors: Network, Resolver, HTTP, and Matcher are required")
	}
	if len(cfg.Wordlist) == 0 {
		cfg.Wordlist = DefaultSubdomainWordlist()
	}
	s := &Scanner{cfg: cfg}
	if cfg.ListenAddr.IsValid() {
		s.listener = NewCallbackListener()
		cfg.Network.Register(
			netsim.Endpoint{Addr: cfg.ListenAddr, Port: netsim.PortHTTP},
			cfg.Region, s.listener)
	}
	return s
}

// isCandidate keeps only addresses outside every DPS provider's ranges.
func (s *Scanner) isCandidate(addr netip.Addr) bool {
	_, isDPS := s.cfg.Matcher.MatchA(addr)
	return !isDPS
}

func (s *Scanner) candidateFilter(addrs []netip.Addr) []netip.Addr {
	var out []netip.Addr
	seen := make(map[netip.Addr]bool)
	for _, a := range addrs {
		if !seen[a] && s.isCandidate(a) {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// publicView resolves the target's www A records as any client would.
func (s *Scanner) publicView(apex dnsmsg.Name) []netip.Addr {
	res, err := s.cfg.Resolver.Resolve(apex.Child("www"), dnsmsg.TypeA)
	if err != nil {
		return nil
	}
	return res.Addrs()
}

// ScanIPHistory queries the passive-DNS archive for addresses the target
// resolved to in the past.
func (s *Scanner) ScanIPHistory(apex dnsmsg.Name, beforeDay int) Finding {
	f := Finding{Vector: IPHistory, Apex: apex}
	if s.cfg.Archive == nil {
		f.Note = "no passive-DNS archive configured"
		return f
	}
	f.Candidates = s.candidateFilter(s.cfg.Archive.AddrsBefore(apex.Child("www"), beforeDay))
	f.Note = fmt.Sprintf("passive DNS before day %d", beforeDay)
	return f
}

// ScanSubdomains bruteforces common labels and keeps those resolving
// outside DPS ranges.
func (s *Scanner) ScanSubdomains(apex dnsmsg.Name) Finding {
	f := Finding{Vector: Subdomains, Apex: apex}
	var hits []string
	for _, label := range s.cfg.Wordlist {
		res, err := s.cfg.Resolver.Resolve(apex.Child(label), dnsmsg.TypeA)
		if err != nil {
			continue
		}
		for _, addr := range res.Addrs() {
			if s.isCandidate(addr) {
				f.Candidates = append(f.Candidates, addr)
				hits = append(hits, label)
			}
		}
	}
	f.Candidates = s.candidateFilter(f.Candidates)
	f.Note = "unprotected subdomains: " + strings.Join(hits, ",")
	return f
}

// ScanDNSRecords inspects non-A records — here the MX host — for
// addresses outside DPS ranges.
func (s *Scanner) ScanDNSRecords(apex dnsmsg.Name) Finding {
	f := Finding{Vector: DNSRecords, Apex: apex}
	mxRes, err := s.cfg.Resolver.Resolve(apex, dnsmsg.TypeMX)
	if err != nil {
		return f
	}
	for _, rr := range mxRes.Answers {
		mx, ok := rr.Data.(dnsmsg.MXData)
		if !ok {
			continue
		}
		aRes, err := s.cfg.Resolver.Resolve(mx.Host, dnsmsg.TypeA)
		if err != nil {
			continue
		}
		f.Candidates = append(f.Candidates, aRes.Addrs()...)
		f.Note = fmt.Sprintf("MX %s", mx.Host)
	}
	f.Candidates = s.candidateFilter(f.Candidates)
	return f
}

// ScanTemporaryExposure checks whether the target is currently in the OFF
// state: delegated to a DPS but answering with a non-DPS address.
func (s *Scanner) ScanTemporaryExposure(apex dnsmsg.Name) Finding {
	f := Finding{Vector: TemporaryExposure, Apex: apex}
	www := apex.Child("www")
	res, err := s.cfg.Resolver.Resolve(www, dnsmsg.TypeA)
	if err != nil {
		return f
	}
	delegated := false
	if _, ok := s.cfg.Matcher.MatchAnyCNAME(res.CNAMETargets()); ok {
		delegated = true
	} else if nsRes, err := s.cfg.Resolver.Resolve(apex, dnsmsg.TypeNS); err == nil {
		if _, ok := s.cfg.Matcher.MatchAnyNS(nsRes.NSHosts()); ok {
			delegated = true
		}
	}
	if !delegated {
		return f
	}
	f.Candidates = s.candidateFilter(res.Addrs())
	if len(f.Candidates) > 0 {
		f.Note = "DPS paused: public A record bypasses the platform"
	}
	return f
}

// ScanCertificates sweeps the configured address spaces, collecting TLS
// certificate subjects, and reports addresses presenting the target's
// names.
func (s *Scanner) ScanCertificates(apex dnsmsg.Name) Finding {
	f := Finding{Vector: SSLCertificates, Apex: apex}
	want := map[string]bool{
		string(apex):              true,
		string(apex.Child("www")): true,
	}
	probed := 0
	for _, prefix := range s.cfg.ScanSpaces {
		n := ipspace.HostCapacity(prefix)
		for i := 0; i < n; i++ {
			addr := ipspace.NthAddr(prefix, i)
			probed++
			subjects, err := httpsim.ProbeCert(s.cfg.Network, s.cfg.ListenAddr, s.cfg.Region, addr)
			if err != nil {
				continue
			}
			for _, sub := range subjects {
				if want[sub] {
					f.Candidates = append(f.Candidates, addr)
					break
				}
			}
		}
	}
	f.Candidates = s.candidateFilter(f.Candidates)
	f.Note = fmt.Sprintf("swept %d addresses", probed)
	return f
}

// ScanSensitiveFiles fetches well-known leftover files through the public
// view and extracts addresses from their contents.
func (s *Scanner) ScanSensitiveFiles(apex dnsmsg.Name) Finding {
	f := Finding{Vector: SensitiveFiles, Apex: apex}
	paths := []string{website.SensitiveFilePath, "/.env", "/config.bak"}
	for _, public := range s.publicView(apex) {
		for _, path := range paths {
			resp, err := s.cfg.HTTP.Get(public, string(apex.Child("www")), path)
			if err != nil || resp.StatusCode != 200 {
				continue
			}
			if addrs := ExtractAddrs(resp.Body); len(addrs) > 0 {
				f.Candidates = append(f.Candidates, addrs...)
				f.Note = "found in " + path
			}
		}
	}
	f.Candidates = s.candidateFilter(f.Candidates)
	return f
}

// ScanOriginInContent fetches the landing page through the public view and
// extracts addresses embedded in the HTML.
func (s *Scanner) ScanOriginInContent(apex dnsmsg.Name) Finding {
	f := Finding{Vector: OriginInContent, Apex: apex}
	for _, public := range s.publicView(apex) {
		resp, err := s.cfg.HTTP.Get(public, string(apex.Child("www")), "/")
		if err != nil || resp.StatusCode != 200 {
			continue
		}
		if addrs := ExtractAddrs(resp.Body); len(addrs) > 0 {
			f.Candidates = append(f.Candidates, addrs...)
			f.Note = "address embedded in landing page"
		}
	}
	f.Candidates = s.candidateFilter(f.Candidates)
	return f
}

// ScanOutboundConnection triggers the target's pingback endpoint through
// the public view and watches which address calls back.
func (s *Scanner) ScanOutboundConnection(apex dnsmsg.Name) Finding {
	f := Finding{Vector: OutboundConnection, Apex: apex}
	if s.listener == nil {
		f.Note = "no callback listener configured"
		return f
	}
	s.listener.Reset()
	for _, public := range s.publicView(apex) {
		req := httpsim.Request{
			Method: "GET",
			Path:   "/pingback",
			Host:   string(apex.Child("www")),
			Headers: map[string]string{
				"X-Callback": s.cfg.ListenAddr.String(),
			},
		}
		_, _ = s.cfg.HTTP.Do(public, req)
	}
	f.Candidates = s.candidateFilter(s.listener.Callers())
	if len(f.Candidates) > 0 {
		f.Note = "origin connected back to the listener"
	}
	return f
}

// ScanAll runs every vector against the target. beforeDay bounds the
// IP-history query (use the day the site joined its DPS, or the current
// day when unknown).
func (s *Scanner) ScanAll(apex dnsmsg.Name, beforeDay int) []Finding {
	findings := []Finding{
		s.ScanIPHistory(apex, beforeDay),
		s.ScanSubdomains(apex),
		s.ScanDNSRecords(apex),
		s.ScanTemporaryExposure(apex),
		s.ScanCertificates(apex),
		s.ScanSensitiveFiles(apex),
		s.ScanOriginInContent(apex),
		s.ScanOutboundConnection(apex),
	}
	sort.SliceStable(findings, func(i, j int) bool { return findings[i].Vector < findings[j].Vector })
	return findings
}

// CandidateUnion returns the distinct candidates across findings.
func CandidateUnion(findings []Finding) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	for _, f := range findings {
		for _, a := range f.Candidates {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}
