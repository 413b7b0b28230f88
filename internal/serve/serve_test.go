package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/snapdisk"
	"rrdps/internal/snapstore"
	"rrdps/internal/world"
)

// runDynamicsCampaign runs a small dynamics campaign into a checkpoint
// directory and opens it as the service's source.
func runDynamicsCampaign(t testing.TB, dir string, days int) *CheckpointSource {
	t.Helper()
	experiment.Dynamics{
		World:         world.New(dynamicsConfig()),
		Days:          days,
		CheckpointDir: dir,
	}.Run()
	return openCheckpoint(t, dir)
}

// dynamicsConfig is the churny 200-site world the serve tests share.
func dynamicsConfig() world.Config {
	cfg := world.PaperConfig(200)
	cfg.Seed = 9001
	cfg.JoinRate = 0.01
	cfg.LeaveRate = 0.02
	cfg.PauseRate = 0.04
	cfg.SwitchRate = 0.01
	return cfg
}

func openCheckpoint(t testing.TB, dir string) *CheckpointSource {
	t.Helper()
	src, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func get(t *testing.T, h http.Handler, path string, header map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestStatsExposesScenarioProvenance pins the "what scenario produced
// this epoch" answer: a campaign configured from a scenario spec carries
// the spec's name and hash through its checkpoints into /v1/stats; a
// flag-driven campaign reports no scenario at all.
func TestStatsExposesScenarioProvenance(t *testing.T) {
	dir := t.TempDir()
	cfg := world.PaperConfig(200)
	cfg.Seed = 9001
	experiment.Dynamics{
		World:         world.New(cfg),
		Days:          3,
		CheckpointDir: dir,
		Scenario: &experiment.ScenarioInfo{
			Name:      "serve-provenance",
			Hash:      "deadbeef",
			Canonical: []byte("{}\n"),
		},
	}.Run()

	var scn struct {
		Scenario *struct {
			Name string `json:"name"`
			Hash string `json:"hash"`
		} `json:"scenario"`
	}
	srv := New(Config{Source: openCheckpoint(t, dir)})
	if err := json.Unmarshal(get(t, srv.Handler(), "/v1/stats", nil).Body.Bytes(), &scn); err != nil {
		t.Fatal(err)
	}
	if scn.Scenario == nil {
		t.Fatal("stats has no scenario section")
	}
	if scn.Scenario.Name != "serve-provenance" || scn.Scenario.Hash != "deadbeef" {
		t.Errorf("scenario = %+v, want serve-provenance/deadbeef", scn.Scenario)
	}

	// A flag-driven campaign must not invent provenance.
	plain := runDynamicsCampaign(t, t.TempDir(), 2)
	var stats struct {
		Scenario *struct{} `json:"scenario"`
	}
	srv = New(Config{Source: plain})
	if err := json.Unmarshal(get(t, srv.Handler(), "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scenario != nil {
		t.Error("flag-driven campaign reports a scenario section")
	}
}

func TestDomainAnswers(t *testing.T) {
	dir := t.TempDir()
	src := runDynamicsCampaign(t, dir, 5)
	srv := New(Config{Source: src})
	e, _ := src.Epoch()

	// The stats answer must carry the campaign, not just the store.
	var stats struct {
		Kind     string `json:"kind"`
		Dynamics *struct {
			DaysCollected int `json:"days_collected"`
			Population    int `json:"population"`
		} `json:"dynamics"`
	}
	if err := json.Unmarshal(get(t, srv.Handler(), "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Kind != experiment.CampaignKindDynamics || stats.Dynamics == nil {
		t.Fatalf("stats = %+v, want a dynamics campaign", stats)
	}
	if stats.Dynamics.DaysCollected != 5 || stats.Dynamics.Population == 0 {
		t.Fatalf("stats.dynamics = %+v, want 5 days over a nonzero population", stats.Dynamics)
	}

	// Every domain the campaign classified must answer with a verdict.
	verdicts := 0
	for _, apex := range e.View.Apexes() {
		w := get(t, srv.Handler(), "/v1/domain/"+string(apex), nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d", apex, w.Code)
		}
		var resp struct {
			Apex    string `json:"apex"`
			Verdict *struct {
				Status string `json:"status"`
			} `json:"verdict"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Apex != string(apex) {
			t.Fatalf("asked %s, got %s", apex, resp.Apex)
		}
		if resp.Verdict != nil {
			switch resp.Verdict.Status {
			case "ON", "OFF", "NONE":
			default:
				t.Fatalf("%s: verdict status %q", apex, resp.Verdict.Status)
			}
			verdicts++
		}
	}
	if verdicts == 0 {
		t.Fatal("no domain answered with a verdict")
	}

	if w := get(t, srv.Handler(), "/v1/domain/never-seen.example", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown domain: status %d, want 404", w.Code)
	}
	if w := get(t, srv.Handler(), "/v1/domain/"+string(e.View.Apexes()[0])+"/history", nil); w.Code != http.StatusOK {
		t.Fatalf("history: status %d", w.Code)
	}
	if w := get(t, srv.Handler(), "/v1/domains?limit=bogus", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("bad limit: status %d, want 400", w.Code)
	}
}

func TestResidualAnswers(t *testing.T) {
	cfg := world.PaperConfig(200)
	cfg.Seed = 9101
	cfg.LeaveRate = 0.01
	cfg.SwitchRate = 0.008
	cfg.JoinRate = 0.002
	dir := t.TempDir()
	experiment.Residual{
		World:         world.New(cfg),
		Weeks:         2,
		WarmupDays:    7,
		CheckpointDir: dir,
	}.Run()
	srv := New(Config{Source: openCheckpoint(t, dir)})

	var stats struct {
		Kind     string `json:"kind"`
		Residual *struct {
			WeeksScanned int            `json:"weeks_scanned"`
			HiddenTotal  map[string]int `json:"hidden_total"`
		} `json:"residual"`
	}
	if err := json.Unmarshal(get(t, srv.Handler(), "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Kind != experiment.CampaignKindResidual || stats.Residual == nil {
		t.Fatalf("stats = %+v, want a residual campaign", stats)
	}
	if stats.Residual.WeeksScanned != 2 {
		t.Fatalf("weeks_scanned = %d, want 2", stats.Residual.WeeksScanned)
	}
	if _, ok := stats.Residual.HiddenTotal["cloudflare"]; !ok {
		t.Fatalf("hidden_total = %v, want a cloudflare entry", stats.Residual.HiddenTotal)
	}
}

// TestNoEpochYet: a directory with nothing sealed yet opens with no
// epoch; the data endpoints answer 503 while liveness reports that the
// process is up but not serving.
func TestNoEpochYet(t *testing.T) {
	srv := New(Config{Source: openCheckpoint(t, t.TempDir())})
	if w := get(t, srv.Handler(), "/v1/stats", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("stats before first seal: status %d, want 503", w.Code)
	}
	// Liveness still answers — the process is up, just not serving yet.
	w := get(t, srv.Handler(), "/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", w.Code)
	}
	var h struct {
		OK      bool `json:"ok"`
		Serving bool `json:"serving"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Serving {
		t.Fatalf("healthz = %+v, want ok and not serving", h)
	}
}

func TestAuth(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Source: runDynamicsCampaign(t, dir, 2), APIKeys: []string{"k1", "k2"}})

	w := get(t, srv.Handler(), "/v1/stats", nil)
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("no key: status %d, want 401", w.Code)
	}
	if got := w.Header().Get("WWW-Authenticate"); got == "" {
		t.Fatal("401 without WWW-Authenticate")
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("401 body %q is not an error JSON (%v)", w.Body.String(), err)
	}
	if w := get(t, srv.Handler(), "/v1/stats", map[string]string{"Authorization": "Bearer wrong"}); w.Code != http.StatusUnauthorized {
		t.Fatalf("wrong key: status %d, want 401", w.Code)
	}
	if w := get(t, srv.Handler(), "/v1/stats", map[string]string{"Authorization": "Bearer k1"}); w.Code != http.StatusOK {
		t.Fatalf("bearer key: status %d, want 200", w.Code)
	}
	if w := get(t, srv.Handler(), "/v1/stats", map[string]string{"X-API-Key": "k2"}); w.Code != http.StatusOK {
		t.Fatalf("header key: status %d, want 200", w.Code)
	}
	// Liveness needs no key.
	if w := get(t, srv.Handler(), "/healthz", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz with auth on: status %d, want 200", w.Code)
	}
}

// fakeClock is a hand-driven clock for the rate-limit tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestRateLimit(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	srv := New(Config{
		Source:     runDynamicsCampaign(t, dir, 2),
		APIKeys:    []string{"k1", "k2"},
		RatePerSec: 1,
		Burst:      2,
		Now:        clock.now,
	})
	k1 := map[string]string{"Authorization": "Bearer k1"}
	k2 := map[string]string{"Authorization": "Bearer k2"}

	for i := 0; i < 2; i++ {
		if w := get(t, srv.Handler(), "/v1/stats", k1); w.Code != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, w.Code)
		}
	}
	w := get(t, srv.Handler(), "/v1/stats", k1)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over budget: status %d, want 429", w.Code)
	}
	retry, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", w.Header().Get("Retry-After"))
	}

	// Another key has its own bucket.
	if w := get(t, srv.Handler(), "/v1/stats", k2); w.Code != http.StatusOK {
		t.Fatalf("fresh key rate-limited: status %d", w.Code)
	}

	// Waiting the advertised interval buys exactly one more token.
	clock.advance(time.Duration(retry) * time.Second)
	if w := get(t, srv.Handler(), "/v1/stats", k1); w.Code != http.StatusOK {
		t.Fatalf("after Retry-After: status %d, want 200", w.Code)
	}
	if w := get(t, srv.Handler(), "/v1/stats", k1); w.Code != http.StatusTooManyRequests {
		t.Fatalf("token reused: status %d, want 429", w.Code)
	}

	// Unauthorized requests must not drain the bucket: the 401 short-
	// circuits before the limiter.
	clock.advance(10 * time.Second)
	for i := 0; i < 5; i++ {
		get(t, srv.Handler(), "/v1/stats", map[string]string{"Authorization": "Bearer wrong"})
	}
	if w := get(t, srv.Handler(), "/v1/stats", k1); w.Code != http.StatusOK {
		t.Fatalf("bucket drained by unauthorized traffic: status %d", w.Code)
	}
}

// TestRateLimitWithoutAuth: with auth off the key a client sends is its
// own invention, so it must not pick the bucket — every request shares
// one budget, and the limiter's table stays at one entry.
func TestRateLimitWithoutAuth(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	srv := New(Config{
		Source:     runDynamicsCampaign(t, t.TempDir(), 2),
		RatePerSec: 1,
		Burst:      1,
		Now:        clock.now,
	})
	if w := get(t, srv.Handler(), "/v1/stats", map[string]string{"Authorization": "Bearer invented-1"}); w.Code != http.StatusOK {
		t.Fatalf("first request: status %d, want 200", w.Code)
	}
	if w := get(t, srv.Handler(), "/v1/stats", map[string]string{"X-API-Key": "invented-2"}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request under a new invented key: status %d, want 429", w.Code)
	}
	if n := len(srv.limiter.byKey); n != 1 {
		t.Fatalf("limiter holds %d buckets, want 1", n)
	}
}

// TestOpenCheckpointErrors: a missing path, a file, and a checkpoint
// without campaign state are errors; none of them is an empty world.
func TestOpenCheckpointErrors(t *testing.T) {
	if _, err := OpenCheckpoint("/does/not/exist"); err == nil {
		t.Fatal("missing dir opened as a checkpoint source")
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(file); err == nil {
		t.Fatal("a file opened as a checkpoint source")
	}
	dir := t.TempDir()
	d, err := snapdisk.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCheckpoint(3, snapstore.New().ExportState(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(dir); err == nil {
		t.Fatal("a checkpoint without campaign state opened as a source")
	}
}

// TestListenAndServe drives the real network path: bind :0, query over
// TCP, then stop and verify the graceful shutdown completes.
func TestListenAndServe(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{Source: runDynamicsCampaign(t, dir, 2), APIKeys: []string{"k"}})

	stop := make(chan struct{})
	addrc := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServe("127.0.0.1:0", stop, 2*time.Second, func(a string) { addrc <- a })
	}()
	addr := <-addrc

	req, _ := http.NewRequest("GET", fmt.Sprintf("http://%s/v1/stats", addr), nil)
	req.Header.Set("Authorization", "Bearer k")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("over TCP: status %d", resp.StatusCode)
	}

	close(stop)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}
