package dnsmsg

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleMessage() *Message {
	q := NewQuery(4660, MustParseName("www.example.com"), TypeA)
	resp := NewResponse(q, RCodeNoError)
	resp.Header.Authoritative = true
	resp.Answers = []RR{
		NewCNAME("www.example.com", 300*time.Second, "www.example.com.cdn.incapdns.net"),
		NewA("www.example.com.cdn.incapdns.net", 30*time.Second, netip.MustParseAddr("199.83.128.17")),
	}
	resp.Authority = []RR{
		NewNS("example.com", 86400*time.Second, "kate.ns.cloudflare.com"),
		NewNS("example.com", 86400*time.Second, "rob.ns.cloudflare.com"),
	}
	resp.Additional = []RR{
		NewA("kate.ns.cloudflare.com", 3600*time.Second, netip.MustParseAddr("173.245.58.1")),
		NewMX("example.com", 3600*time.Second, 10, "mail.example.com"),
		NewTXT("example.com", 60*time.Second, "v=spf1 -all", "probe"),
		NewSOA("example.com", 900*time.Second, "kate.ns.cloudflare.com", "dns.cloudflare.com", 2034),
	}
	return resp
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msg := sampleMessage()
	wire, err := Encode(msg)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(msg, got) {
		t.Fatalf("round trip mismatch:\nsent: %s\ngot:  %s", msg, got)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	msg := sampleMessage()
	wire := MustEncode(msg)
	// Rough uncompressed size: every name spelled out in full.
	uncompressed := 12
	countName := func(n Name) int { return len(n) + 2 }
	for _, q := range msg.Questions {
		uncompressed += countName(q.Name) + 4
	}
	for _, sec := range [][]RR{msg.Answers, msg.Authority, msg.Additional} {
		for _, rr := range sec {
			uncompressed += countName(rr.Name) + 10 + 24 // generous rdata estimate
		}
	}
	if len(wire) >= uncompressed {
		t.Fatalf("compressed size %d not smaller than uncompressed estimate %d", len(wire), uncompressed)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	wire := MustEncode(sampleMessage())
	for _, cut := range []int{1, 5, 11, len(wire) / 2, len(wire) - 1} {
		if _, err := Decode(wire[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes succeeded", cut, len(wire))
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	wire := MustEncode(sampleMessage())
	if _, err := Decode(append(wire, 0x00)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("err = %v, want ErrTrailingBytes", err)
	}
}

func TestDecodeRejectsForwardPointer(t *testing.T) {
	// Hand-craft a query whose qname is a pointer to itself.
	buf := []byte{
		0x00, 0x01, // ID
		0x00, 0x00, // flags
		0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // counts: 1 question
		0xC0, 0x0C, // pointer to offset 12 (itself)
		0x00, 0x01, 0x00, 0x01, // type A, class IN
	}
	if _, err := Decode(buf); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("err = %v, want ErrBadPointer", err)
	}
}

func TestDecodeRejectsBadLabelTag(t *testing.T) {
	buf := []byte{
		0x00, 0x01,
		0x00, 0x00,
		0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x80, // reserved tag 10xxxxxx
		0x00, 0x01, 0x00, 0x01,
	}
	if _, err := Decode(buf); !errors.Is(err, ErrBadPointer) {
		t.Fatalf("err = %v, want ErrBadPointer", err)
	}
}

func TestDecodeRejectsUnsupportedType(t *testing.T) {
	msg := NewQuery(1, "example.com", TypeA)
	resp := NewResponse(msg, RCodeNoError)
	resp.Answers = []RR{NewA("example.com", time.Minute, netip.MustParseAddr("10.0.0.1"))}
	wire := MustEncode(resp)
	// Rewrite the answer's TYPE field (name is a pointer here: 2 bytes).
	// Layout: header(12) + question(qname+4) + answer(2-byte ptr + type...).
	qnameLen := len("example.com") + 2
	typeOff := 12 + qnameLen + 4 + 2
	wire[typeOff] = 0x00
	wire[typeOff+1] = 0x63 // TYPE99 (SPF), unsupported
	if _, err := Decode(wire); !errors.Is(err, ErrUnsupportedRR) {
		t.Fatalf("err = %v, want ErrUnsupportedRR", err)
	}
}

func TestEncodeRejectsMixedAddressFamilies(t *testing.T) {
	m := NewQuery(1, "x.com", TypeA)
	r := NewResponse(m, RCodeNoError)
	r.Answers = []RR{{Name: "x.com", Class: ClassIN, TTL: time.Minute, Data: AData{Addr: netip.MustParseAddr("2001:db8::1")}}}
	if _, err := Encode(r); err == nil {
		t.Error("encoding A record with IPv6 address succeeded")
	}
	r.Answers = []RR{{Name: "x.com", Class: ClassIN, TTL: time.Minute, Data: AAAAData{Addr: netip.MustParseAddr("10.0.0.1")}}}
	if _, err := Encode(r); err == nil {
		t.Error("encoding AAAA record with IPv4 address succeeded")
	}
}

func TestEncodeRejectsNilRData(t *testing.T) {
	m := NewQuery(1, "x.com", TypeA)
	r := NewResponse(m, RCodeNoError)
	r.Answers = []RR{{Name: "x.com", Class: ClassIN, TTL: time.Minute}}
	if _, err := Encode(r); err == nil {
		t.Error("encoding nil rdata succeeded")
	}
}

func TestTTLClamping(t *testing.T) {
	m := NewQuery(1, "x.com", TypeA)
	r := NewResponse(m, RCodeNoError)
	r.Answers = []RR{NewA("x.com", -5*time.Second, netip.MustParseAddr("10.0.0.1"))}
	got, err := Decode(MustEncode(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].TTL != 0 {
		t.Errorf("negative TTL decoded as %v, want 0", got.Answers[0].TTL)
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	m := &Message{Header: Header{
		ID:                 0xBEEF,
		Response:           true,
		Opcode:             OpcodeQuery,
		Authoritative:      true,
		Truncated:          true,
		RecursionDesired:   true,
		RecursionAvailable: true,
		RCode:              RCodeRefused,
	}}
	got, err := Decode(MustEncode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Header != m.Header {
		t.Fatalf("header = %+v, want %+v", got.Header, m.Header)
	}
}

// randomName builds a plausible random domain name.
func randomName(rng *rand.Rand) Name {
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-"
	labels := 1 + rng.Intn(4)
	name := Name("")
	for i := 0; i < labels; i++ {
		n := 1 + rng.Intn(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha)-1)] // avoid '-' heavy names; fine either way
		}
		name = name.Child(string(b))
	}
	return name
}

func randomRR(rng *rand.Rand) RR {
	name := randomName(rng)
	ttl := time.Duration(rng.Intn(86400)) * time.Second
	switch rng.Intn(6) {
	case 0:
		var a [4]byte
		rng.Read(a[:])
		return NewA(name, ttl, netip.AddrFrom4(a))
	case 1:
		return NewNS(name, ttl, randomName(rng))
	case 2:
		return NewCNAME(name, ttl, randomName(rng))
	case 3:
		return NewMX(name, ttl, uint16(rng.Intn(100)), randomName(rng))
	case 4:
		return NewTXT(name, ttl, "k=v", "probe")
	default:
		return NewSOA(name, ttl, randomName(rng), randomName(rng), rng.Uint32())
	}
}

// Property: Decode(Encode(m)) == m for arbitrary well-formed messages.
func TestRoundTripQuickProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(id uint16, nAns, nAuth uint8) bool {
		q := NewQuery(id, randomName(rng), TypeA)
		m := NewResponse(q, RCode(rng.Intn(6)))
		for i := 0; i < int(nAns%5); i++ {
			m.Answers = append(m.Answers, randomRR(rng))
		}
		for i := 0; i < int(nAuth%4); i++ {
			m.Authority = append(m.Authority, randomRR(rng))
		}
		wire, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: decoding arbitrary garbage never panics.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(n uint16) bool {
		b := make([]byte, int(n)%400)
		rng.Read(b)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", b, r)
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestTTLHighBitClampedOnDecode pins the RFC 2181 §8 rule found by
// fuzzing: a TTL with the MSB set decodes as zero, keeping decoding
// canonical.
func TestTTLHighBitClampedOnDecode(t *testing.T) {
	msg := NewQuery(1, "x.com", TypeA)
	resp := NewResponse(msg, RCodeNoError)
	resp.Answers = []RR{NewA("x.com", time.Minute, netip.MustParseAddr("10.0.0.1"))}
	wire := MustEncode(resp)
	// Overwrite the answer TTL with 0xCC303030 (> 2^31-1).
	qnameLen := len("x.com") + 2
	ttlOff := 12 + qnameLen + 4 + 2 + 2 + 2
	copy(wire[ttlOff:], []byte{0xCC, 0x30, 0x30, 0x30})
	got, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].TTL != 0 {
		t.Fatalf("MSB-set TTL decoded as %v, want 0", got.Answers[0].TTL)
	}
}

// NewSOA builds an SOA record with conventional timer values.
func NewSOA(name Name, ttl time.Duration, mname, rname Name, serial uint32) RR {
	return RR{Name: name, Class: ClassIN, TTL: ttl, Data: SOAData{
		MName:   mname,
		RName:   rname,
		Serial:  serial,
		Refresh: 7200,
		Retry:   3600,
		Expire:  1209600,
		Minimum: 300,
	}}
}
