package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"runtime"
	"strconv"
	"testing"
	"time"

	"rrdps/internal/core/collect"
	"rrdps/internal/core/experiment"
	"rrdps/internal/dnsmsg"
	"rrdps/internal/world"
)

// compactLine asserts that body is one compact JSON value followed by a
// single newline: the wire format of every route.
func compactLine(t *testing.T, what string, body []byte) {
	t.Helper()
	line, ok := bytes.CutSuffix(body, []byte("\n"))
	if !ok || bytes.IndexByte(line, '\n') >= 0 {
		t.Fatalf("%s: body is not one line ending in a newline: %q", what, body)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, line); err != nil {
		t.Fatalf("%s: body is not JSON: %v", what, err)
	}
	if !bytes.Equal(compact.Bytes(), line) {
		t.Fatalf("%s: body is not compact JSON:\n%s", what, line)
	}
}

// TestWireFormat pins the body of every route and status to one line of
// compact JSON, and the record's address list to dotted addresses.
func TestWireFormat(t *testing.T) {
	src := runDynamicsCampaign(t, t.TempDir(), 3)
	h := New(Config{Source: src}).Handler()
	e, _ := src.Epoch()
	day, _ := e.View.LatestDay()

	want := func(code int, path string, via http.Handler) {
		t.Helper()
		w := get(t, via, path, nil)
		if w.Code != code {
			t.Fatalf("%s: status %d, want %d", path, w.Code, code)
		}
		compactLine(t, path, w.Body.Bytes())
	}
	for _, path := range []string{"/healthz", "/v1/stats", "/v1/domains", "/v1/domains?limit=3", "/metrics"} {
		want(http.StatusOK, path, h)
	}
	want(http.StatusNotFound, "/v1/domain/never-seen.example", h)
	want(http.StatusBadRequest, "/v1/domain/a..b", h)
	want(http.StatusBadRequest, "/v1/domains?limit=0", h)
	want(http.StatusUnauthorized, "/v1/stats", New(Config{Source: src, APIKeys: []string{"k"}}).Handler())
	want(http.StatusServiceUnavailable, "/v1/stats", New(Config{Source: openCheckpoint(t, t.TempDir())}).Handler())
	limited := New(Config{Source: src, RatePerSec: 1, Burst: 1, Now: func() time.Time { return time.Unix(0, 0) }}).Handler()
	want(http.StatusOK, "/v1/stats", limited)
	want(http.StatusTooManyRequests, "/v1/stats", limited)

	addrs := 0
	for _, apex := range e.View.Apexes() {
		want(http.StatusOK, "/v1/domain/"+string(apex)+"/history", h)
		w := get(t, h, "/v1/domain/"+string(apex), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", apex, w.Code)
		}
		compactLine(t, string(apex), w.Body.Bytes())
		var resp struct {
			Record *struct {
				Addrs []string `json:"addrs"`
			} `json:"record"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		rec, live := e.View.RecordAt(apex, day)
		if !live {
			continue
		}
		if len(resp.Record.Addrs) != len(rec.Addrs) {
			t.Fatalf("%s: addrs %v, want %v", apex, resp.Record.Addrs, rec.Addrs)
		}
		for i, a := range resp.Record.Addrs {
			if p, err := netip.ParseAddr(a); err != nil || !p.Is4() || a != rec.Addrs[i].String() {
				t.Fatalf("%s: addr %q, want dotted %s", apex, a, rec.Addrs[i])
			}
			addrs++
		}
	}
	if addrs == 0 {
		t.Fatal("no live record carried an address")
	}
}

// TestRecordJSONOmitsEmptyLists: a record's empty address, CNAME and NS
// lists are left out of the body, whether nil or empty and non-nil.
func TestRecordJSONOmitsEmptyLists(t *testing.T) {
	for _, rec := range []collect.Record{
		{ResolveOK: true},
		{ResolveOK: true, Addrs: []netip.Addr{}, CNAMEs: []dnsmsg.Name{}, NSHosts: []dnsmsg.Name{}},
	} {
		got, err := json.Marshal(recordJSONOf(rec))
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"resolve_ok":true,"ns_ok":false}`; string(got) != want {
			t.Fatalf("record %+v renders %s, want %s", rec, got, want)
		}
	}
	full := collect.Record{
		Addrs:   []netip.Addr{netip.MustParseAddr("192.0.2.7")},
		CNAMEs:  []dnsmsg.Name{"a.example"},
		NSHosts: []dnsmsg.Name{"ns1.example"},
		NSOK:    true,
	}
	got, err := json.Marshal(recordJSONOf(full))
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"addrs":["192.0.2.7"],"cnames":["a.example"],"ns_hosts":["ns1.example"],"resolve_ok":false,"ns_ok":true}`; string(got) != want {
		t.Fatalf("record renders %s, want %s", got, want)
	}
}

// TestDomainsPage: a list page is a prefix of the rank-ordered
// population, its total is the store's apex count, and a short page costs
// far less than one copy of the apex list.
func TestDomainsPage(t *testing.T) {
	dir := t.TempDir()
	experiment.Dynamics{World: world.New(world.PaperConfig(2000)), Days: 1, CheckpointDir: dir}.Run()
	src := openCheckpoint(t, dir)
	h := New(Config{Source: src}).Handler()
	e, _ := src.Epoch()
	apexes := e.View.Stats().Apexes

	type page struct {
		Total   int `json:"total"`
		Domains []struct {
			Apex string `json:"apex"`
			Rank int    `json:"rank"`
		} `json:"domains"`
	}
	list := func(limit int) page {
		t.Helper()
		w := get(t, h, "/v1/domains?limit="+strconv.Itoa(limit), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("limit=%d: status %d", limit, w.Code)
		}
		var p page
		if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		if p.Total != apexes {
			t.Fatalf("limit=%d: total %d, want the store's %d apexes", limit, p.Total, apexes)
		}
		return p
	}
	all := list(apexes)
	if len(all.Domains) != apexes {
		t.Fatalf("limit=total lists %d of %d apexes", len(all.Domains), apexes)
	}
	for i, d := range all.Domains {
		if rank, _ := e.View.Rank(dnsmsg.Name(d.Apex)); d.Apex != string(e.View.Apexes()[i]) || d.Rank != rank {
			t.Fatalf("entry %d = %+v, want apex %s rank %d", i, d, e.View.Apexes()[i], rank)
		}
	}
	if over := list(apexes + 10); len(over.Domains) != apexes {
		t.Fatalf("limit above total lists %d of %d apexes", len(over.Domains), apexes)
	}
	for _, k := range []int{1, 3, apexes / 2} {
		p := list(k)
		if len(p.Domains) != k {
			t.Fatalf("limit=%d lists %d entries", k, len(p.Domains))
		}
		for i := range p.Domains {
			if p.Domains[i] != all.Domains[i] {
				t.Fatalf("limit=%d entry %d = %+v, want %+v", k, i, p.Domains[i], all.Domains[i])
			}
		}
	}

	// The page must not copy the apex list: the old handler allocated at
	// least 16 B (one name header) per apex on every request.
	const runs = 200
	req := httptest.NewRequest("GET", "/v1/domains?limit=1", nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	runtime.ReadMemStats(&after)
	if perReq := (after.TotalAlloc - before.TotalAlloc) / runs; perReq > uint64(16*apexes/4) {
		t.Fatalf("limit=1 allocates %d B per request over %d apexes, want under a quarter of one apex-list copy (%d B)", perReq, apexes, 16*apexes/4)
	}
}
