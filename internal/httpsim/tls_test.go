package httpsim

import (
	"errors"
	"net/netip"
	"strings"
	"testing"

	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

func tlsFixture(t *testing.T) (*netsim.Network, netip.Addr) {
	t.Helper()
	net := netsim.New(netsim.Config{Clock: simtime.NewSimulated()})
	return net, netip.MustParseAddr("198.51.100.99")
}

func TestCertProbe(t *testing.T) {
	net, prober := tlsFixture(t)
	server := NewCertServer("shop.com", "WWW.shop.com")
	addr := netip.MustParseAddr("10.0.0.7")
	net.Register(netsim.Endpoint{Addr: addr, Port: PortHTTPS}, netsim.RegionVirginia, server)

	subjects, err := ProbeCert(net, prober, netsim.RegionOregon, addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(subjects) != 2 || subjects[0] != "shop.com" || subjects[1] != "www.shop.com" {
		t.Fatalf("subjects = %v", subjects)
	}
}

func TestCertAddRemoveSubject(t *testing.T) {
	net, prober := tlsFixture(t)
	server := NewCertServer("a.com")
	addr := netip.MustParseAddr("10.0.0.8")
	net.Register(netsim.Endpoint{Addr: addr, Port: PortHTTPS}, netsim.RegionVirginia, server)

	server.AddSubject("b.com")
	subjects, err := ProbeCert(net, prober, netsim.RegionOregon, addr)
	if err != nil || len(subjects) != 2 {
		t.Fatalf("subjects = %v, err = %v", subjects, err)
	}
	server.RemoveSubject("a.com")
	subjects, err = ProbeCert(net, prober, netsim.RegionOregon, addr)
	if err != nil || len(subjects) != 1 || subjects[0] != "b.com" {
		t.Fatalf("subjects = %v, err = %v", subjects, err)
	}
}

func TestCertEmptyServer(t *testing.T) {
	net, prober := tlsFixture(t)
	addr := netip.MustParseAddr("10.0.0.9")
	net.Register(netsim.Endpoint{Addr: addr, Port: PortHTTPS}, netsim.RegionVirginia, NewCertServer())
	subjects, err := ProbeCert(net, prober, netsim.RegionOregon, addr)
	if err != nil || subjects != nil {
		t.Fatalf("subjects = %v, err = %v", subjects, err)
	}
}

func TestCertProbeNoServer(t *testing.T) {
	net, prober := tlsFixture(t)
	addr := netip.MustParseAddr("10.9.9.9")
	_, err := ProbeCert(net, prober, netsim.RegionOregon, addr)
	if err == nil {
		t.Fatal("probe of empty address succeeded")
	}
	// The error reads and unwraps as the fabric's, prefixed by the address.
	_, sendErr := net.Send(prober, netsim.RegionOregon, netsim.Endpoint{Addr: addr, Port: PortHTTPS}, []byte(probeHello))
	if want := "probing 10.9.9.9: " + sendErr.Error(); err.Error() != want {
		t.Fatalf("probe error %q, want %q", err, want)
	}
	if !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("probe error %v does not wrap netsim.ErrUnreachable", err)
	}
}

func TestCertServerIgnoresNonHello(t *testing.T) {
	net, prober := tlsFixture(t)
	addr := netip.MustParseAddr("10.0.0.10")
	net.Register(netsim.Endpoint{Addr: addr, Port: PortHTTPS}, netsim.RegionVirginia, NewCertServer("x.com"))
	_, err := net.Send(prober, netsim.RegionOregon, netsim.Endpoint{Addr: addr, Port: PortHTTPS}, []byte("GET / HTTP/1.1"))
	if err == nil {
		t.Fatal("non-hello payload got an answer")
	}
}

func TestPingbackEndpoint(t *testing.T) {
	net, _ := tlsFixture(t)
	originAddr := netip.MustParseAddr("10.0.0.20")
	listenerAddr := netip.MustParseAddr("10.0.0.30")

	var seen []netip.Addr
	listener := netsim.HandlerFunc(func(req netsim.Request) ([]byte, error) {
		seen = append(seen, req.From)
		return EncodeResponse(Response{StatusCode: 200}), nil
	})
	net.Register(netsim.Endpoint{Addr: listenerAddr, Port: netsim.PortHTTP}, netsim.RegionLondon, listener)

	origin := NewOrigin(OriginConfig{
		Page:     Page{Title: "P"},
		Pingback: NewClient(net, originAddr, netsim.RegionVirginia),
	})
	net.Register(netsim.Endpoint{Addr: originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, origin)

	client := NewClient(net, netip.MustParseAddr("198.51.100.5"), netsim.RegionOregon)
	resp, err := client.Do(originAddr, Request{
		Method:  "GET",
		Path:    "/pingback",
		Host:    "www.p.com",
		Headers: map[string]string{"X-Callback": listenerAddr.String()},
	})
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("pingback request: %v, %d", err, resp.StatusCode)
	}
	if len(seen) != 1 || seen[0] != originAddr {
		t.Fatalf("listener saw %v, want origin %v", seen, originAddr)
	}
}

func TestPingbackRequiresCallback(t *testing.T) {
	net, _ := tlsFixture(t)
	originAddr := netip.MustParseAddr("10.0.0.21")
	origin := NewOrigin(OriginConfig{
		Page:     Page{Title: "P"},
		Pingback: NewClient(net, originAddr, netsim.RegionVirginia),
	})
	net.Register(netsim.Endpoint{Addr: originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, origin)
	client := NewClient(net, netip.MustParseAddr("198.51.100.5"), netsim.RegionOregon)
	resp, err := client.Do(originAddr, Request{Method: "GET", Path: "/pingback", Host: "www.p.com"})
	if err != nil || resp.StatusCode != 400 {
		t.Fatalf("missing callback: %v, %d", err, resp.StatusCode)
	}
}

func TestPingbackDisabledIs404(t *testing.T) {
	net, _ := tlsFixture(t)
	originAddr := netip.MustParseAddr("10.0.0.22")
	origin := NewOrigin(OriginConfig{Page: Page{Title: "P"}})
	net.Register(netsim.Endpoint{Addr: originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, origin)
	client := NewClient(net, netip.MustParseAddr("198.51.100.5"), netsim.RegionOregon)
	resp, err := client.Do(originAddr, Request{
		Method: "GET", Path: "/pingback", Host: "www.p.com",
		Headers: map[string]string{"X-Callback": "10.0.0.30"},
	})
	if err != nil || resp.StatusCode != 404 {
		t.Fatalf("disabled pingback: %v, %d", err, resp.StatusCode)
	}
}

func TestServedFiles(t *testing.T) {
	net, _ := tlsFixture(t)
	originAddr := netip.MustParseAddr("10.0.0.23")
	origin := NewOrigin(OriginConfig{
		Page:  Page{Title: "P"},
		Files: map[string]string{"/backup.cfg": "db_host=10.1.2.3"},
	})
	net.Register(netsim.Endpoint{Addr: originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, origin)
	client := NewClient(net, netip.MustParseAddr("198.51.100.5"), netsim.RegionOregon)
	resp, err := client.Get(originAddr, "www.p.com", "/backup.cfg")
	if err != nil || resp.StatusCode != 200 || resp.Body != "db_host=10.1.2.3" {
		t.Fatalf("file fetch: %v, %d, %q", err, resp.StatusCode, resp.Body)
	}
	// SetFiles replaces the set.
	origin.SetFiles(nil)
	resp, _ = client.Get(originAddr, "www.p.com", "/backup.cfg")
	if resp.StatusCode != 404 {
		t.Fatalf("after SetFiles(nil): %d", resp.StatusCode)
	}
}

// AddSubject installs another certificate.
func (s *CertServer) AddSubject(subject string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.subjects[strings.ToLower(subject)] = true
}

// RemoveSubject drops a certificate.
func (s *CertServer) RemoveSubject(subject string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subjects, strings.ToLower(subject))
}
