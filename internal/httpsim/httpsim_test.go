package httpsim

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"rrdps/internal/netsim"
	"rrdps/internal/simtime"
)

func TestRequestCodecRoundTrip(t *testing.T) {
	req := Request{
		Method:  "GET",
		Path:    "/index.html",
		Host:    "www.example.com",
		Headers: map[string]string{"User-Agent": "rrdps-probe/1.0", "Accept": "text/html"},
	}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("round trip: %+v != %+v", got, req)
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	resp := Response{
		StatusCode: 200,
		Status:     "OK",
		Headers:    map[string]string{"Content-Type": "text/html"},
		Body:       "<html>hi</html>",
	}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, got) {
		t.Fatalf("round trip: %+v != %+v", got, resp)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("GARBAGE\r\n\r\n"),
		[]byte("GET /\r\n\r\n"), // no protocol
		[]byte("GET / HTTP/1.1\r\nNoColonHeader\r\n\r\n"), // bad header
		[]byte("GET / HTTP/1.1\r\nAccept: x\r\n\r\n"),     // missing Host
	}
	for _, c := range cases {
		if _, err := DecodeRequest(c); !errors.Is(err, ErrMalformedRequest) {
			t.Errorf("DecodeRequest(%q) err = %v, want ErrMalformedRequest", c, err)
		}
	}
}

// TestDecodeRequestLineLengths: the scanner buffer is sized from the
// request, so lines past that size, past the former 64 KiB start, or
// cut off by EOF must decode as before, and a line over the 1 MiB token
// cap must still fail as an empty request.
func TestDecodeRequestLineLengths(t *testing.T) {
	long := strings.Repeat("x", 100*1024)
	for _, raw := range []string{
		"GET / HTTP/1.1\r\nHost: a.example\r\nX-Long: " + long + "\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: a.example", // no final newline
	} {
		req, err := DecodeRequest([]byte(raw))
		if err != nil || req.Host != "a.example" {
			t.Errorf("DecodeRequest(%.40q…) = host %q, err %v", raw, req.Host, err)
		}
	}
	huge := "GET /" + strings.Repeat("x", 1024*1024) + " HTTP/1.1\r\nHost: a.example\r\n\r\n"
	if _, err := DecodeRequest([]byte(huge)); !errors.Is(err, ErrMalformedRequest) || !strings.HasPrefix(err.Error(), "empty:") {
		t.Errorf("DecodeRequest(2 MiB request line) err = %v, want the empty-request error", err)
	}
}

// TestDecodeRequestAllocBytes: decoding a verification-sized request
// must not pay for a 64 KiB scanner buffer.
func TestDecodeRequestAllocBytes(t *testing.T) {
	raw := EncodeRequest(Request{Method: "GET", Path: "/", Host: "www.example.com",
		Headers: map[string]string{"User-Agent": "rrdps-verify/1.0"}})
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := DecodeRequest(raw); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 4096 {
		t.Fatalf("DecodeRequest of a %d-byte request allocates %d B, want <= 4096", len(raw), perOp)
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("HTTP/1.1 200 OK\r\n"),     // no terminator
		[]byte("BOGUS 200 OK\r\n\r\n"),    // bad proto
		[]byte("HTTP/1.1 abc OK\r\n\r\n"), // bad code
		[]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nlonger-body"), // length mismatch
	}
	for _, c := range cases {
		if _, err := DecodeResponse(c); !errors.Is(err, ErrMalformedResponse) {
			t.Errorf("DecodeResponse(%q) err = %v, want ErrMalformedResponse", c, err)
		}
	}
}

func TestPageRenderParseRoundTrip(t *testing.T) {
	p := Page{
		Title: "Example Site - Home",
		Meta: map[string]string{
			"description": "an example site",
			"generator":   "sitegen 2.1",
		},
		Body: "<h1>Welcome</h1>",
	}
	got := ParsePage(p.Render())
	if got.Title != p.Title {
		t.Errorf("title = %q, want %q", got.Title, p.Title)
	}
	if !reflect.DeepEqual(got.Meta, p.Meta) {
		t.Errorf("meta = %v, want %v", got.Meta, p.Meta)
	}
}

func TestParsePageLenient(t *testing.T) {
	html := `<html><head><TITLE>nope</TITLE><title>Real Title</title>` +
		`<meta name='single' content='quoted'>` +
		`<meta content="reversed" name="attr-order">` +
		`<meta name=bare content=alsobare >` +
		`</head><body></body></html>`
	p := ParsePage(html)
	if p.Title != "Real Title" {
		t.Errorf("title = %q", p.Title)
	}
	if p.Meta["single"] != "quoted" {
		t.Errorf("single = %q", p.Meta["single"])
	}
	if p.Meta["attr-order"] != "reversed" {
		t.Errorf("attr-order = %q", p.Meta["attr-order"])
	}
	if p.Meta["bare"] != "alsobare" {
		t.Errorf("bare = %q", p.Meta["bare"])
	}
}

func TestParsePageEmpty(t *testing.T) {
	p := ParsePage("")
	if p.Title != "" || len(p.Meta) != 0 {
		t.Fatalf("ParsePage(\"\") = %+v", p)
	}
}

// Property: rendering then parsing preserves title and meta for tame
// strings.
func TestRenderParseQuickProperty(t *testing.T) {
	sanitize := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r < 32 || r == '<' || r == '>' || r == '"' || r == '&' || r == '\'' || r == '\\' || r > 126 {
				return -1
			}
			return r
		}, s)
		return strings.TrimSpace(s)
	}
	f := func(title, k1, v1 string) bool {
		title, k1, v1 = sanitize(title), sanitize(k1), sanitize(v1)
		k1 = strings.ReplaceAll(strings.ReplaceAll(k1, "=", ""), " ", "")
		if k1 == "" {
			k1 = "x"
		}
		p := Page{Title: title, Meta: map[string]string{k1: v1}}
		got := ParsePage(p.Render())
		return got.Title == title && got.Meta[k1] == v1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func newHTTPFixture(t *testing.T, cfg OriginConfig) (*netsim.Network, *Origin, *Client, netip.Addr) {
	t.Helper()
	net := netsim.New(netsim.Config{Clock: simtime.NewSimulated()})
	origin := NewOrigin(cfg)
	originAddr := netip.MustParseAddr("10.50.0.1")
	net.Register(netsim.Endpoint{Addr: originAddr, Port: netsim.PortHTTP}, netsim.RegionVirginia, origin)
	client := NewClient(net, netip.MustParseAddr("198.51.100.80"), netsim.RegionOregon)
	return net, origin, client, originAddr
}

func TestOriginServesLandingPage(t *testing.T) {
	page := Page{Title: "Shop", Meta: map[string]string{"description": "buy things"}}
	_, _, client, addr := newHTTPFixture(t, OriginConfig{Page: page})
	resp, err := client.Get(addr, "www.shop.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	got := ParsePage(resp.Body)
	if got.Title != "Shop" || got.Meta["description"] != "buy things" {
		t.Fatalf("page = %+v", got)
	}
}

func TestOriginClientACL(t *testing.T) {
	edge := netip.MustParseAddr("104.16.0.9")
	net, origin, client, addr := newHTTPFixture(t, OriginConfig{Page: Page{Title: "Protected"}})
	origin.SetAllowedClients([]netip.Addr{edge})
	resp, err := client.Get(addr, "www.p.com", "/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 403 {
		t.Fatalf("unauthorized client status = %d, want 403", resp.StatusCode)
	}
	edgeClient := NewClient(net, edge, netsim.RegionVirginia)
	resp, err = edgeClient.Get(addr, "www.p.com", "/")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("edge client: %d, %v", resp.StatusCode, err)
	}
}

func TestOriginDynamicMeta(t *testing.T) {
	calls := 0
	_, _, client, addr := newHTTPFixture(t, OriginConfig{
		Page: Page{Title: "Dyn", Meta: map[string]string{"static": "same"}},
		DynamicMeta: func() map[string]string {
			calls++
			return map[string]string{"request-id": strings.Repeat("x", calls)}
		},
	})
	r1, _ := client.Get(addr, "www.dyn.com", "/")
	r2, _ := client.Get(addr, "www.dyn.com", "/")
	p1, p2 := ParsePage(r1.Body), ParsePage(r2.Body)
	if p1.Meta["request-id"] == p2.Meta["request-id"] {
		t.Fatal("dynamic meta did not vary between requests")
	}
	if p1.Meta["static"] != "same" || p2.Meta["static"] != "same" {
		t.Fatal("static meta lost")
	}
}

func TestOriginSetPage(t *testing.T) {
	_, origin, client, addr := newHTTPFixture(t, OriginConfig{Page: Page{Title: "Old"}})
	origin.SetPage(Page{Title: "New"})
	resp, _ := client.Get(addr, "x.com", "/")
	if ParsePage(resp.Body).Title != "New" {
		t.Fatal("SetPage did not take effect")
	}
}

func TestOriginPathAndMethodHandling(t *testing.T) {
	net, _, client, addr := newHTTPFixture(t, OriginConfig{Page: Page{Title: "T"}})
	resp, _ := client.Get(addr, "x.com", "/secret.txt")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path status = %d", resp.StatusCode)
	}
	// Index alias works.
	resp, _ = client.Get(addr, "x.com", "/index.html")
	if resp.StatusCode != 200 {
		t.Fatalf("/index.html status = %d", resp.StatusCode)
	}
	// Non-GET refused.
	req := Request{Method: "POST", Path: "/", Host: "x.com"}
	raw, err := net.Send(client.addr, netsim.RegionOregon, netsim.Endpoint{Addr: addr, Port: netsim.PortHTTP}, EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	dec, _ := DecodeResponse(raw)
	if dec.StatusCode != 404 {
		t.Fatalf("POST status = %d", dec.StatusCode)
	}
}

func TestOriginMalformedRequestGets400(t *testing.T) {
	net, _, client, addr := newHTTPFixture(t, OriginConfig{Page: Page{Title: "T"}})
	raw, err := net.Send(client.addr, netsim.RegionOregon, netsim.Endpoint{Addr: addr, Port: netsim.PortHTTP}, []byte("junk"))
	if err != nil {
		t.Fatal(err)
	}
	resp, _ := DecodeResponse(raw)
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestOriginHits(t *testing.T) {
	_, origin, client, addr := newHTTPFixture(t, OriginConfig{Page: Page{Title: "T"}})
	for i := 0; i < 3; i++ {
		if _, err := client.Get(addr, "x.com", "/"); err != nil {
			t.Fatal(err)
		}
	}
	if got := origin.Hits(); got != 3 {
		t.Fatalf("hits = %d, want 3", got)
	}
}

func TestClientGetUnreachable(t *testing.T) {
	_, _, client, _ := newHTTPFixture(t, OriginConfig{Page: Page{Title: "T"}})
	_, err := client.Get(netip.MustParseAddr("10.99.99.99"), "x.com", "/")
	if !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

// Property: decoding arbitrary garbage never panics in either codec.
func TestDecodeGarbageNeverPanicsHTTP(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(n uint16) bool {
		b := make([]byte, int(n)%300)
		rng.Read(b)
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("decode panicked on %q: %v", b, r)
			}
		}()
		_, _ = DecodeRequest(b)
		_, _ = DecodeResponse(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
