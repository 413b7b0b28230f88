package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/world"
)

// runDynamicsCampaign runs a small dynamics campaign that both writes a
// checkpoint directory and publishes every sealed round to a LiveSource —
// the two attachment modes the service supports, off one ground truth.
func runDynamicsCampaign(t testing.TB, dir string, days int) *LiveSource {
	t.Helper()
	cfg := world.PaperConfig(200)
	cfg.Seed = 9001
	cfg.JoinRate = 0.01
	cfg.LeaveRate = 0.02
	cfg.PauseRate = 0.04
	cfg.SwitchRate = 0.01
	live := &LiveSource{}
	experiment.Dynamics{
		World:         world.New(cfg),
		Days:          days,
		CheckpointDir: dir,
		OnSeal:        live.OnSeal,
	}.Run()
	return live
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

// TestCheckpointEqualsLive is the service-level half of the
// live/checkpoint equivalence guarantee: every endpoint's body is
// byte-identical whether the server loaded the campaign's final
// checkpoint from disk or received the final round through OnSeal.
func TestCheckpointEqualsLive(t *testing.T) {
	dir := t.TempDir()
	live := runDynamicsCampaign(t, dir, 5)
	ckpt, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	liveSrv := New(Config{Source: live})
	ckptSrv := New(Config{Source: ckpt})

	e, ok := live.Epoch()
	if !ok {
		t.Fatal("live source has no epoch after the campaign")
	}
	apexes := e.View.Apexes()
	if len(apexes) == 0 {
		t.Fatal("campaign produced no apexes")
	}

	paths := []string{
		"/v1/stats",
		"/v1/domains",
		"/v1/domains?limit=7",
	}
	// Sample across the rank range so at least some sampled domains have
	// verdicts, histories with churn, and pause windows.
	for i := 0; i < len(apexes); i += 20 {
		paths = append(paths,
			"/v1/domain/"+string(apexes[i]),
			"/v1/domain/"+string(apexes[i])+"/history")
	}
	for _, path := range paths {
		lw := get(t, liveSrv.Handler(), path, nil)
		cw := get(t, ckptSrv.Handler(), path, nil)
		if lw.Code != http.StatusOK || cw.Code != http.StatusOK {
			t.Fatalf("%s: live=%d checkpoint=%d, want 200/200", path, lw.Code, cw.Code)
		}
		if lw.Body.String() != cw.Body.String() {
			t.Errorf("%s: live and checkpoint responses differ:\nlive:\n%s\ncheckpoint:\n%s",
				path, lw.Body.String(), cw.Body.String())
		}
	}

	// The stats answer must carry the campaign, not just the store.
	var stats struct {
		Kind     string `json:"kind"`
		WorldDay int    `json:"world_day"`
		Dynamics *struct {
			DaysCollected int `json:"days_collected"`
			Population    int `json:"population"`
		} `json:"dynamics"`
	}
	if err := json.Unmarshal(get(t, ckptSrv.Handler(), "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Kind != experiment.CampaignKindDynamics || stats.Dynamics == nil {
		t.Fatalf("stats = %+v, want a dynamics campaign", stats)
	}
	if stats.Dynamics.DaysCollected != 5 || stats.Dynamics.Population == 0 {
		t.Fatalf("stats.dynamics = %+v, want 5 days over a nonzero population", stats.Dynamics)
	}
}

// TestStatsExposesScenarioProvenance pins the "what scenario produced
// this epoch" answer: a campaign configured from a scenario spec carries
// the spec's name and hash through its checkpoints into /v1/stats, both
// live and from disk; a flag-driven campaign reports no scenario at all.
func TestStatsExposesScenarioProvenance(t *testing.T) {
	dir := t.TempDir()
	cfg := world.PaperConfig(200)
	cfg.Seed = 9001
	live := &LiveSource{}
	experiment.Dynamics{
		World:         world.New(cfg),
		Days:          3,
		CheckpointDir: dir,
		OnSeal:        live.OnSeal,
		Scenario: &experiment.ScenarioInfo{
			Name:      "serve-provenance",
			Hash:      "deadbeef",
			Canonical: []byte("{}\n"),
		},
	}.Run()
	ckpt, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	for name, src := range map[string]Source{"live": live, "checkpoint": ckpt} {
		srv := New(Config{Source: src})
		var stats struct {
			Scenario *struct {
				Name string `json:"name"`
				Hash string `json:"hash"`
			} `json:"scenario"`
		}
		if err := json.Unmarshal(get(t, srv.Handler(), "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Scenario == nil {
			t.Fatalf("%s: stats has no scenario section", name)
		}
		if stats.Scenario.Name != "serve-provenance" || stats.Scenario.Hash != "deadbeef" {
			t.Errorf("%s: scenario = %+v, want serve-provenance/deadbeef", name, stats.Scenario)
		}
	}

	// A flag-driven campaign must not invent provenance.
	plain := runDynamicsCampaign(t, t.TempDir(), 2)
	var stats struct {
		Scenario *struct{} `json:"scenario"`
	}
	srv := New(Config{Source: plain})
	if err := json.Unmarshal(get(t, srv.Handler(), "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scenario != nil {
		t.Error("flag-driven campaign reports a scenario section")
	}
}

func TestDomainAnswers(t *testing.T) {
	dir := t.TempDir()
	live := runDynamicsCampaign(t, dir, 5)
	srv := New(Config{Source: live})
	e, _ := live.Epoch()

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
	live := &LiveSource{}
	experiment.Residual{
		World:      world.New(cfg),
		Weeks:      2,
		WarmupDays: 7,
		OnSeal:     live.OnSeal,
	}.Run()
	srv := New(Config{Source: live})

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

func TestNoEpochYet(t *testing.T) {
	srv := New(Config{Source: &LiveSource{}})
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
	live := runDynamicsCampaign(t, dir, 2)
	srv := New(Config{Source: live, APIKeys: []string{"k1", "k2"}})

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
	live := runDynamicsCampaign(t, dir, 2)
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	srv := New(Config{
		Source:     live,
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

// TestLiveConcurrentReads attaches the service to a campaign in flight
// and hammers it from parallel readers while rounds seal — the
// reads-never-lock-the-writer guarantee, checked under -race.
func TestLiveConcurrentReads(t *testing.T) {
	cfg := world.PaperConfig(150)
	cfg.Seed = 9201
	cfg.PauseRate = 0.04
	live := &LiveSource{}
	srv := New(Config{Source: live})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				e, ok := live.Epoch()
				if !ok {
					continue
				}
				apexes := e.View.Apexes()
				apex := string(apexes[i%len(apexes)])
				for _, path := range []string{
					"/v1/domain/" + apex,
					"/v1/domain/" + apex + "/history",
					"/v1/stats",
					"/v1/domains?limit=5",
				} {
					if w := get(t, srv.Handler(), path, nil); w.Code != http.StatusOK {
						t.Errorf("%s: status %d", path, w.Code)
						return
					}
				}
			}
		}(i)
	}

	experiment.Dynamics{
		World:  world.New(cfg),
		Days:   12,
		OnSeal: live.OnSeal,
	}.Run()
	close(done)
	wg.Wait()

	e, ok := live.Epoch()
	if !ok {
		t.Fatal("no epoch after campaign")
	}
	if day, _ := e.View.LatestDay(); day == 0 {
		t.Fatal("final epoch is still day 0")
	}
}

// TestEpochConsistency: a handler must never mix two rounds in one
// answer. The stats endpoint reports the store and the campaign from the
// same Epoch, so days_collected always equals the view's day count even
// while rounds seal mid-request.
func TestEpochConsistency(t *testing.T) {
	cfg := world.PaperConfig(100)
	cfg.Seed = 9301
	live := &LiveSource{}
	srv := New(Config{Source: live})

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, ok := live.Epoch(); !ok {
				continue
			}
			w := get(t, srv.Handler(), "/v1/stats", nil)
			var stats struct {
				WorldDay int `json:"world_day"`
				Store    struct {
					Days int `json:"days"`
				} `json:"store"`
				Dynamics struct {
					DaysCollected int `json:"days_collected"`
				} `json:"dynamics"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
				t.Error(err)
				return
			}
			// SnapWindow 0 streams with a 2-day window; the retained day
			// count must match the campaign's progress, capped by it.
			want := stats.Dynamics.DaysCollected
			if want > 2 {
				want = 2
			}
			if stats.Store.Days != want {
				t.Errorf("store.days=%d with days_collected=%d: response mixed two epochs",
					stats.Store.Days, stats.Dynamics.DaysCollected)
				return
			}
		}
	}()

	experiment.Dynamics{
		World:  world.New(cfg),
		Days:   10,
		OnSeal: live.OnSeal,
	}.Run()
	close(done)
	wg.Wait()
}

func TestOpenCheckpointErrors(t *testing.T) {
	if _, err := OpenCheckpoint(t.TempDir()); err == nil {
		t.Fatal("empty dir opened as a checkpoint source")
	}
	if _, err := OpenCheckpoint("/does/not/exist"); err == nil {
		t.Fatal("missing dir opened as a checkpoint source")
	}
}

// TestListenAndServe drives the real network path: bind :0, query over
// TCP, then stop and verify the graceful shutdown completes.
func TestListenAndServe(t *testing.T) {
	dir := t.TempDir()
	live := runDynamicsCampaign(t, dir, 2)
	srv := New(Config{Source: live, APIKeys: []string{"k"}})

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
