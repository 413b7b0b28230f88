package dnsserver

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"rrdps/internal/dnsmsg"
	"rrdps/internal/dnszone"
	"rrdps/internal/netsim"
)

func newServerWithZone(t testing.TB, policy UnknownZonePolicy) *Server {
	t.Helper()
	s := New(Config{Name: "test-ns", UnknownZone: policy})
	z := dnszone.New("example.com", dnsmsg.SOAData{MName: "ns1.example.com", RName: "admin.example.com", Serial: 1})
	z.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, netip.MustParseAddr("10.0.0.1")))
	z.MustAdd(dnsmsg.NewCNAME("blog.example.com", time.Minute, "www.example.com"))
	s.AddZone(z)
	return s
}

func query(name dnsmsg.Name, qtype dnsmsg.Type) *dnsmsg.Message {
	return dnsmsg.NewQuery(42, name, qtype)
}

func TestRespondAnswer(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	resp := s.Respond(query("www.example.com", dnsmsg.TypeA))
	if resp == nil || resp.Header.RCode != dnsmsg.RCodeNoError {
		t.Fatalf("resp = %v", resp)
	}
	if !resp.Header.Authoritative {
		t.Error("AA bit not set")
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(dnsmsg.AData).Addr != netip.MustParseAddr("10.0.0.1") {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

func TestRespondCNAMEChain(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	resp := s.Respond(query("blog.example.com", dnsmsg.TypeA))
	if len(resp.Answers) != 2 {
		t.Fatalf("answers = %v, want CNAME+A", resp.Answers)
	}
}

func TestRespondNXDomain(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	resp := s.Respond(query("nope.example.com", dnsmsg.TypeA))
	if resp.Header.RCode != dnsmsg.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Header.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnsmsg.TypeSOA {
		t.Fatalf("authority = %v, want SOA", resp.Authority)
	}
}

func TestRespondNoData(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	resp := s.Respond(query("www.example.com", dnsmsg.TypeMX))
	if resp.Header.RCode != dnsmsg.RCodeNoError || len(resp.Answers) != 0 {
		t.Fatalf("resp = %v", resp)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnsmsg.TypeSOA {
		t.Fatalf("authority = %v, want SOA", resp.Authority)
	}
}

func TestRespondUnknownZoneRefuse(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	resp := s.Respond(query("www.other.org", dnsmsg.TypeA))
	if resp == nil || resp.Header.RCode != dnsmsg.RCodeRefused {
		t.Fatalf("resp = %v, want REFUSED", resp)
	}
}

func TestRespondUnknownZoneIgnore(t *testing.T) {
	s := newServerWithZone(t, PolicyIgnore)
	if resp := s.Respond(query("www.other.org", dnsmsg.TypeA)); resp != nil {
		t.Fatalf("resp = %v, want silent ignore", resp)
	}
}

func TestRespondNonINClass(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	q := query("www.example.com", dnsmsg.TypeA)
	q.Questions[0].Class = dnsmsg.Class(3) // CHAOS
	resp := s.Respond(q)
	if resp.Header.RCode != dnsmsg.RCodeNotImp {
		t.Fatalf("rcode = %v, want NOTIMP", resp.Header.RCode)
	}
}

func TestReferralFromParentZone(t *testing.T) {
	s := New(Config{Name: "tld"})
	z := dnszone.New("com", dnsmsg.SOAData{MName: "a.gtld", RName: "hostmaster.com", Serial: 1})
	z.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "ns1.provider.net"))
	s.AddZone(z)
	resp := s.Respond(query("www.example.com", dnsmsg.TypeA))
	if resp.Header.Authoritative {
		t.Error("referral should not set AA")
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type() != dnsmsg.TypeNS {
		t.Fatalf("authority = %v", resp.Authority)
	}
}

func TestLongestZoneWins(t *testing.T) {
	s := New(Config{Name: "multi"})
	parent := dnszone.New("com", dnsmsg.SOAData{MName: "a", RName: "b", Serial: 1})
	parent.MustAdd(dnsmsg.NewNS("example.com", time.Hour, "elsewhere.net"))
	child := dnszone.New("example.com", dnsmsg.SOAData{MName: "a", RName: "b", Serial: 1})
	child.MustAdd(dnsmsg.NewA("www.example.com", time.Minute, netip.MustParseAddr("10.5.5.5")))
	s.AddZone(parent)
	s.AddZone(child)

	resp := s.Respond(query("www.example.com", dnsmsg.TypeA))
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v: child zone should win over parent referral", resp.Answers)
	}
}

func TestServeNetWireLevel(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	wire := dnsmsg.MustEncode(query("www.example.com", dnsmsg.TypeA))
	out, err := s.ServeNet(netsim.Request{Payload: wire})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnsmsg.Decode(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if got := s.Queries(); got != 1 {
		t.Fatalf("query count = %d, want 1", got)
	}
}

func TestServeNetDropsMalformed(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	out, err := s.ServeNet(netsim.Request{Payload: []byte{1, 2, 3}})
	if out != nil || err != nil {
		t.Fatalf("malformed datagram: out=%v err=%v, want silent drop", out, err)
	}
	// Responses must also be dropped, not answered.
	resp := dnsmsg.NewResponse(query("www.example.com", dnsmsg.TypeA), dnsmsg.RCodeNoError)
	out, err = s.ServeNet(netsim.Request{Payload: dnsmsg.MustEncode(resp)})
	if out != nil || err != nil {
		t.Fatalf("response datagram: out=%v err=%v, want silent drop", out, err)
	}
}

func TestZoneManagement(t *testing.T) {
	s := newServerWithZone(t, PolicyRefuse)
	if len(s.zones) != 1 {
		t.Fatalf("ZoneCount = %d", len(s.zones))
	}
	if _, ok := s.Zone("example.com"); !ok {
		t.Fatal("Zone lookup failed")
	}
	s.RemoveZone("example.com")
	if len(s.zones) != 0 {
		t.Fatal("zone not removed")
	}
	resp := s.Respond(query("www.example.com", dnsmsg.TypeA))
	if resp.Header.RCode != dnsmsg.RCodeRefused {
		t.Fatalf("after removal rcode = %v", resp.Header.RCode)
	}
}

// TestManyZonesLookup exercises the Cloudflare-fleet shape: one server
// hosting tens of thousands of customer zones must answer in O(labels),
// not O(zones).
func TestManyZonesLookup(t *testing.T) {
	s := New(Config{Name: "fleet", UnknownZone: PolicyIgnore})
	const zones = 20000
	for i := 0; i < zones; i++ {
		apex := dnsmsg.MustParseName(fmt.Sprintf("customer%05d.com", i))
		z := dnszone.New(apex, dnsmsg.SOAData{MName: "ns1", RName: "r", Serial: 1, Minimum: 300})
		z.MustAdd(dnsmsg.NewA(apex.Child("www"), time.Minute,
			netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})))
		s.AddZone(z)
	}
	if len(s.zones) != zones {
		t.Fatalf("zone count = %d", len(s.zones))
	}
	resp := s.Respond(query("www.customer19999.com", dnsmsg.TypeA))
	if resp == nil || len(resp.Answers) != 1 {
		t.Fatalf("lookup in large fleet failed: %v", resp)
	}
	if resp := s.Respond(query("www.not-a-customer.com", dnsmsg.TypeA)); resp != nil {
		t.Fatalf("unknown zone answered: %v", resp)
	}
}

func BenchmarkRespondLargeFleet(b *testing.B) {
	s := New(Config{Name: "fleet", UnknownZone: PolicyIgnore})
	const zones = 10000
	for i := 0; i < zones; i++ {
		apex := dnsmsg.MustParseName(fmt.Sprintf("customer%05d.com", i))
		z := dnszone.New(apex, dnsmsg.SOAData{MName: "ns1", RName: "r", Serial: 1, Minimum: 300})
		z.MustAdd(dnsmsg.NewA(apex.Child("www"), time.Minute,
			netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})))
		s.AddZone(z)
	}
	q := query("www.customer04242.com", dnsmsg.TypeA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := s.Respond(q); resp == nil || len(resp.Answers) != 1 {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkServeNetWire(b *testing.B) {
	s := newServerWithZone(b, PolicyRefuse)
	wire := dnsmsg.MustEncode(query("www.example.com", dnsmsg.TypeA))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err := s.ServeNet(netsim.Request{Payload: wire}); err != nil || out == nil {
			b.Fatal("serve failed")
		}
	}
}

// Respond computes the server's response to query, bypassing the codec,
// or nil when the query is ignored per policy.
func (s *Server) Respond(query *dnsmsg.Message) *dnsmsg.Message {
	resp := &dnsmsg.Message{}
	var res dnszone.Result
	if _, _, answered := s.respondInto(query, resp, &res); !answered {
		return nil
	}
	return resp
}
