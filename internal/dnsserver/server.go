// Package dnsserver implements an authoritative DNS nameserver attached to
// the simulated network fabric.
//
// A server hosts any number of zones and answers wire-format queries with
// the RFC 1034 semantics provided by dnszone. Its behaviour for names it is
// not authoritative for is configurable: answer REFUSED, or ignore the
// query entirely — the paper observes that Cloudflare's nameservers
// silently ignore queries for domains they do not serve (§V-A.2), and the
// residual-resolution scanner depends on distinguishing "answered" from
// "ignored".
package dnsserver

import (
	"sync"
	"sync/atomic"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnszone"
	"rrdps/internal/netsim"
)

// UnknownZonePolicy selects what the server does with queries for names in
// no hosted zone.
type UnknownZonePolicy int

// Unknown-zone policies.
const (
	// PolicyRefuse answers with RCODE REFUSED.
	PolicyRefuse UnknownZonePolicy = iota + 1
	// PolicyIgnore drops the query silently; clients observe a timeout.
	PolicyIgnore
)

// Config parametrizes a Server.
type Config struct {
	// UnknownZone selects the unknown-zone behaviour. Defaults to
	// PolicyRefuse.
	UnknownZone UnknownZonePolicy
}

// Server is an authoritative nameserver. It is safe for concurrent use.
//
// A server memoizes its answers (see answerMemo): a query whose bytes
// after the ID repeat an earlier one, while the zone records its answer
// read stand unchanged, is answered from the stored response bytes
// without decoding, lookup or encoding.
type Server struct {
	unknown UnknownZonePolicy

	mu    sync.RWMutex
	zones map[dnsmsg.Name]*dnszone.Zone
	gen   atomic.Uint32 // zone-set generation, bumped under mu

	memo answerMemo
}

// New creates a Server.
func New(cfg Config) *Server {
	policy := cfg.UnknownZone
	if policy == 0 {
		policy = PolicyRefuse
	}
	s := &Server{
		unknown: policy,
		zones:   make(map[dnsmsg.Name]*dnszone.Zone),
	}
	s.memo.table.Store(&memoTable{})
	return s
}

var _ netsim.Handler = (*Server)(nil)

// AddZone starts serving z. Adding a zone with the same origin replaces the
// previous one.
func (s *Server) AddZone(z *dnszone.Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin()] = z
	s.gen.Add(1)
}

// RemoveZone stops serving the zone rooted at origin.
func (s *Server) RemoveZone(origin dnsmsg.Name) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.zones, origin)
	s.gen.Add(1)
}

// Zone returns the hosted zone rooted exactly at origin.
func (s *Server) Zone(origin dnsmsg.Name) (*dnszone.Zone, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	z, ok := s.zones[origin]
	return z, ok
}

// findZone returns the hosted zone with the longest origin that is a
// suffix of qname. It walks qname's ancestry instead of scanning all
// zones, so servers hosting tens of thousands of customer zones (like the
// Cloudflare fleet) answer in O(labels).
func (s *Server) findZone(qname dnsmsg.Name) *dnszone.Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n := qname; ; n = n.Parent() {
		if z, ok := s.zones[n]; ok {
			return z
		}
		if n.IsRoot() {
			return nil
		}
	}
}

// serverScratch bundles the per-query codec and lookup state one in-flight
// query needs, pooled so the serve path allocates nothing in steady state.
type serverScratch struct {
	dec   dnsmsg.Decoder
	enc   dnsmsg.Encoder
	query dnsmsg.Message
	resp  dnsmsg.Message
	res   dnszone.Result
}

var scratchPool = sync.Pool{New: func() any { return new(serverScratch) }}

// ServeNet implements netsim.Handler. A nil response with nil error means
// the query was silently ignored.
func (s *Server) ServeNet(req netsim.Request) ([]byte, error) {
	return s.ServeNetBuf(req, nil)
}

var _ netsim.BufferedHandler = (*Server)(nil)

// ServeNetBuf implements netsim.BufferedHandler: the response is appended
// to dst, so a client that recycles its receive buffer gets answers
// without a single server-side allocation. A query the memo holds a valid
// answer to is answered from its stored bytes.
func (s *Server) ServeNetBuf(req netsim.Request, dst []byte) ([]byte, error) {
	p := req.Payload
	if len(p) < 2 {
		return nil, nil
	}
	key := p[2:]
	h := memoHash(key)
	if e, w, ok := s.memoLookup(h, key); ok {
		if e.ignored() {
			return nil, nil
		}
		return e.appendResponse(dst, w, p), nil
	}

	sc := scratchPool.Get().(*serverScratch)
	defer scratchPool.Put(sc)

	if err := sc.dec.DecodeInto(p, &sc.query); err != nil ||
		len(sc.query.Questions) == 0 || sc.query.Header.Response {
		// Malformed datagram: real servers drop these.
		return nil, nil
	}

	gen := s.gen.Load()
	zone, serial, answered := s.respondInto(&sc.query, &sc.resp, &sc.res)
	qname := sc.query.Question().Name
	if !answered {
		s.memoize(h, key, nil, qname, zone, serial, &sc.res.Deps, gen)
		return nil, nil
	}
	start := len(dst)
	out, err := sc.enc.EncodeAppend(dst, &sc.resp)
	if err != nil {
		return out, err
	}
	s.memoize(h, key, out[start+2:], qname, zone, serial, &sc.res.Deps, gen)
	return out, nil
}

// respondInto fills resp (reusing its slices) with the answer to query,
// using res as lookup scratch. It reports false when the query is ignored
// per policy. resp's sections may alias res; both belong to the caller.
// It also returns the zone that answered (nil when none does) and that
// zone's serial, read with WatchSerial before the lookup; res.Deps is
// what the answer depends on in that zone.
func (s *Server) respondInto(query, resp *dnsmsg.Message, res *dnszone.Result) (zone *dnszone.Zone, serial uint32, answered bool) {
	q := query.Question()
	resp.Header = dnsmsg.Header{
		ID:               query.Header.ID,
		Response:         true,
		Opcode:           query.Header.Opcode,
		RecursionDesired: query.Header.RecursionDesired,
	}
	resp.Questions = append(resp.Questions[:0], query.Questions...)
	resp.Answers = nil
	resp.Authority = nil
	resp.Additional = nil
	res.Deps = dnszone.Deps{}

	zone = s.findZone(q.Name)
	if zone == nil {
		if s.unknown == PolicyIgnore {
			return nil, 0, false
		}
		resp.Header.RCode = dnsmsg.RCodeRefused
		return nil, 0, true
	}
	serial = zone.WatchSerial()
	if q.Class != dnsmsg.ClassIN {
		resp.Header.RCode = dnsmsg.RCodeNotImp
		return zone, serial, true
	}

	zone.LookupInto(q.Name, q.Type, res)
	resp.Header.Authoritative = true

	switch res.Kind {
	case dnszone.KindAnswer, dnszone.KindCNAME:
		resp.Answers = res.Records
	case dnszone.KindReferral:
		resp.Header.Authoritative = false
		resp.Authority = res.Records
		resp.Additional = res.Glue
	case dnszone.KindNoData:
		res.Glue = append(res.Glue[:0], res.SOA)
		resp.Authority = res.Glue
	case dnszone.KindNXDomain:
		resp.Header.RCode = dnsmsg.RCodeNXDomain
		res.Glue = append(res.Glue[:0], res.SOA)
		resp.Authority = res.Glue
	}
	return zone, serial, true
}
