package httpsim

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"rrdps/internal/netsim"
)

// The simulated TLS layer is a single round trip: a client hello probe, a
// response listing the certificate subject names served at the address.
// That is all the "SSL certificates" origin-exposure vector needs (paper
// Table I): scanning an IP range and reading subjects off returned
// certificates reveals which addresses host which domains.
const (
	// PortHTTPS is where certificate servers listen.
	PortHTTPS = 443
	// probeHello is the client-hello payload.
	probeHello = "RRDPS-TLS-CLIENT-HELLO"
	// subjectPrefix starts every server response.
	subjectPrefix = "subjects:"
)

// CertServer answers TLS probes with the certificate subjects configured
// on a host. It is safe for concurrent use.
type CertServer struct {
	mu       sync.Mutex
	subjects map[string]bool
}

// NewCertServer creates a server presenting the given subject names.
func NewCertServer(subjects ...string) *CertServer {
	s := &CertServer{subjects: make(map[string]bool, len(subjects))}
	for _, sub := range subjects {
		s.subjects[strings.ToLower(sub)] = true
	}
	return s
}

var _ netsim.Handler = (*CertServer)(nil)

// ServeNet implements netsim.Handler.
func (s *CertServer) ServeNet(req netsim.Request) ([]byte, error) {
	if string(req.Payload) != probeHello {
		return nil, nil // not a TLS hello: drop
	}
	s.mu.Lock()
	subs := make([]string, 0, len(s.subjects))
	for sub := range s.subjects {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	sort.Strings(subs)
	return []byte(subjectPrefix + " " + strings.Join(subs, ",")), nil
}

// probeError is ProbeCert's send failure, formatted as
// "probing <addr>: <cause>" only when read: a certificate sweep probes
// mostly silent addresses and drops their errors unread.
type probeError struct {
	addr netip.Addr
	err  error
}

func (e *probeError) Error() string { return fmt.Sprintf("probing %v: %v", e.addr, e.err) }

func (e *probeError) Unwrap() error { return e.err }

// ProbeCert sends a TLS hello to addr and returns the certificate subject
// names presented there.
func ProbeCert(net *netsim.Network, from netip.Addr, region netsim.Region, addr netip.Addr) ([]string, error) {
	raw, err := net.Send(from, region, netsim.Endpoint{Addr: addr, Port: PortHTTPS}, []byte(probeHello))
	if err != nil {
		return nil, &probeError{addr: addr, err: err}
	}
	body, ok := strings.CutPrefix(string(raw), subjectPrefix)
	if !ok {
		return nil, fmt.Errorf("probing %v: malformed hello response %q", addr, raw)
	}
	body = strings.TrimSpace(body)
	if body == "" {
		return nil, nil
	}
	return strings.Split(body, ","), nil
}
