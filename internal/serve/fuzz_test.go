package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzServeRequest throws arbitrary apexes at /v1/domain/{apex} and
// /v1/domain/{apex}/history, and arbitrary limit values at /v1/domains,
// against an epoch from a small dynamics campaign. The contract under
// fuzz:
//
//  1. No request panics the handler.
//  2. Every answer is 200, 400 or 404: a malformed name or limit is a
//     client error, an unknown name is a miss, nothing is a server error.
//  3. Every 200 body is valid JSON.
//
// The apex is path-escaped, dots included, so it always reaches the
// handler as one segment: "." and ".." segments would otherwise be
// cleaned and redirected by the mux before any parsing happens.
func FuzzServeRequest(f *testing.F) {
	src := runDynamicsCampaign(f, f.TempDir(), 3)
	h := New(Config{Source: src}).Handler()
	e, _ := src.Epoch()
	known := string(e.View.Apexes()[0])

	for _, seed := range []struct{ apex, limit string }{
		{known, ""},
		{known + ".", "1"},
		{strings.ToUpper(known), "5"},
		{"never-seen.example", "100000"},
		{".", "0"},
		{"..", "-1"},
		{"a..b", "bogus"},
		{"a/b", "1e3"},
		{strings.Repeat("a", 64) + ".example", " 7"},
		{strings.Repeat("a.", 200), "9223372036854775808"},
		{"\x00\xff", "+3"},
	} {
		f.Add(seed.apex, seed.limit)
	}

	f.Fuzz(func(t *testing.T, apex, limit string) {
		targets := []string{"/v1/domains?limit=" + url.QueryEscape(limit)}
		// An empty segment is routing, not parsing: the mux answers it
		// before any handler runs.
		if apex != "" {
			seg := strings.ReplaceAll(url.PathEscape(apex), ".", "%2E")
			targets = append(targets, "/v1/domain/"+seg, "/v1/domain/"+seg+"/history")
		}
		for _, target := range targets {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
			switch w.Code {
			case http.StatusOK:
				if !json.Valid(w.Body.Bytes()) {
					t.Fatalf("GET %s: 200 body is not JSON: %q", target, w.Body.Bytes())
				}
			case http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("GET %s: status %d, want 200, 400 or 404", target, w.Code)
			}
		}
	})
}
