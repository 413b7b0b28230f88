package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rrdps/internal/core/experiment"
	"rrdps/internal/world"
)

// runResidualCampaign runs a small, churny three-week residual campaign,
// both case studies included, into dir and opens it as the service's source.
func runResidualCampaign(t testing.TB, dir string) *CheckpointSource {
	t.Helper()
	writeResidualCampaign(dir, 300, 3)
	return openCheckpoint(t, dir)
}

// writeResidualCampaign runs a residual campaign over a sites-wide world
// with rrscan's default churn (x8) for weeks scan weeks into dir.
func writeResidualCampaign(dir string, sites, weeks int) {
	cfg := world.PaperConfig(sites)
	cfg.Seed = 9101
	cfg.LeaveRate *= 8 // churn enough for hidden records at this size
	cfg.SwitchRate *= 8
	cfg.JoinRate *= 8
	experiment.Residual{
		World:         world.New(cfg),
		Weeks:         weeks,
		WarmupDays:    14,
		CheckpointDir: dir,
	}.Run()
}

// freshBody is what writeJSON sends for v, the path that encodes per
// request: the reference every memoized 200 body must equal byte for
// byte.
func freshBody(t *testing.T, v any) string {
	t.Helper()
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, v)
	return w.Body.String()
}

// TestMemoizedBodiesEqualFreshRenders: on a residual epoch (Incapsula
// weeks, three scanned weeks, hidden records) and a dynamics epoch
// (detections, open and closed pauses), every apex's domain and history
// body and the stats body equal a fresh render on the request that only
// marks the epoch's slot, on the repeat that stores the body and on the
// one served from it.
func TestMemoizedBodiesEqualFreshRenders(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   func(t *testing.T) *CheckpointSource
		check func(t *testing.T, e *Epoch)
	}{
		{"residual", func(t *testing.T) *CheckpointSource { return runResidualCampaign(t, t.TempDir()) },
			func(t *testing.T, e *Epoch) {
				res := e.State.Residual
				if res == nil || len(res.Incapsula) == 0 || res.NextWeek-1 < 3 {
					t.Fatal("fixture lacks Incapsula weeks or three scanned weeks")
				}
			}},
		{"dynamics", func(t *testing.T) *CheckpointSource { return runDynamicsCampaign(t, t.TempDir(), 12) },
			func(t *testing.T, e *Epoch) {
				dyn := e.State.Dynamics
				if dyn == nil || !dyn.HaveTracker || len(dyn.Tracker.Detections) == 0 ||
					len(dyn.Tracker.OpenPauses) == 0 || len(dyn.Tracker.Closed) == 0 {
					t.Fatal("fixture lacks detections, open pauses or closed pauses")
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src(t)
			e, _ := src.Epoch()
			tc.check(t, e)
			h := New(Config{Source: src}).Handler()
			hidden := 0
			for i, apex := range e.View.Apexes() {
				idx, _ := e.View.Index(apex)
				domain, history := domainOf(e, apex), historyOf(e, apex)
				hidden += len(domain.HiddenRecords)
				for rep, state := range []string{"empty", "seen", "stored"} {
					for _, c := range []struct {
						path string
						want any
						slot *atomic.Pointer[[]byte]
					}{
						{"/v1/domain/" + string(apex), domain, &e.domain[idx]},
						{"/v1/domain/" + string(apex) + "/history", history, &e.history[idx]},
					} {
						if got := slotState(c.slot); got != state {
							t.Fatalf("%s request %d: slot %s, want %s", c.path, rep, got, state)
						}
						w := get(t, h, c.path, nil)
						if w.Code != http.StatusOK {
							t.Fatalf("%s: status %d", c.path, w.Code)
						}
						if got, want := w.Body.String(), freshBody(t, c.want); got != want {
							t.Fatalf("%s request %d:\n%s\nwant\n%s", c.path, rep, got, want)
						}
					}
				}
				if i == 0 {
					for rep := 0; rep < 3; rep++ {
						if got, want := get(t, h, "/v1/stats", nil).Body.String(), freshBody(t, statsOf(e)); got != want {
							t.Fatalf("/v1/stats request %d:\n%s\nwant\n%s", rep, got, want)
						}
					}
					if got := slotState(&e.stats); got != "stored" {
						t.Fatalf("stats slot %s after three requests", got)
					}
				}
			}
			if tc.name == "residual" && hidden == 0 {
				t.Fatal("no apex answered with hidden records")
			}
		})
	}
}

// slotState names what a slot holds.
func slotState(slot *atomic.Pointer[[]byte]) string {
	switch slot.Load() {
	case nil:
		return "empty"
	case seen:
		return "seen"
	}
	return "stored"
}

// TestConcurrentFirstRender: clients racing to mark and fill one cold
// apex's slots all receive the same bytes, equal to a fresh render.
func TestConcurrentFirstRender(t *testing.T) {
	src := runDynamicsCampaign(t, t.TempDir(), 5)
	e, _ := src.Epoch()
	h := New(Config{Source: src}).Handler()
	apex := e.View.Apexes()[0]
	paths := []string{"/v1/domain/" + string(apex), "/v1/domain/" + string(apex) + "/history", "/v1/stats"}
	want := []string{freshBody(t, domainOf(e, apex)), freshBody(t, historyOf(e, apex)), freshBody(t, statsOf(e))}

	const clients = 8
	got := make([][]string, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, path := range append(paths, paths...) {
				got[c] = append(got[c], get(t, h, path, nil).Body.String())
			}
		}()
	}
	close(start)
	wg.Wait()
	for c := range got {
		for i, body := range got[c] {
			if body != want[i%len(paths)] {
				t.Fatalf("client %d, %s:\n%s\nwant\n%s", c, paths[i%len(paths)], body, want[i%len(paths)])
			}
		}
	}
}

// BenchmarkColdLookups measures the traffic a per-epoch memo cannot
// help: each op swaps in a fresh epoch over the same round, as Refresh
// does whenever a followed campaign seals one, then requests every
// apex's domain and history body once plus stats, so every request
// renders. Besides ns/req it reports the heap per apex that the epoch's
// slots hold after one such pass (onceB/apex) and after a second
// (twiceB/apex, every body stored), and the heap of the loaded epoch
// itself (epochB/apex), at the serve-read fixture's size and ten times
// that.
func BenchmarkColdLookups(b *testing.B) {
	for _, sites := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			dir := b.TempDir()
			writeResidualCampaign(dir, sites, 4)
			before := heapInUse()
			src := openCheckpoint(b, dir)
			epochB := heapInUse() - before
			e, _ := src.Epoch()
			h := New(Config{Source: src}).Handler()
			apexes := e.View.Apexes()
			reqs := []*http.Request{httptest.NewRequest("GET", "/v1/stats", nil)}
			for _, apex := range apexes {
				reqs = append(reqs, httptest.NewRequest("GET", "/v1/domain/"+string(apex), nil),
					httptest.NewRequest("GET", "/v1/domain/"+string(apex)+"/history", nil))
			}
			w := &discardWriter{header: http.Header{}}
			pass := func() {
				for _, r := range reqs {
					h.ServeHTTP(w, r)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.cur.Store(freshEpoch(e))
				pass()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
			src.cur.Store(freshEpoch(e))
			empty := heapInUse()
			pass()
			once := heapInUse()
			pass()
			twice := heapInUse()
			// The three heaps hold the same live values but the slots' contents.
			runtime.KeepAlive([]any{e, h, w, reqs, src})
			n := float64(len(apexes))
			b.ReportMetric(float64(once-empty)/n, "onceB/apex")
			b.ReportMetric(float64(twice-empty)/n, "twiceB/apex")
			b.ReportMetric(float64(epochB)/n, "epochB/apex")
		})
	}
}

// freshEpoch is e's round with empty slots, as Refresh would build it.
func freshEpoch(e *Epoch) *Epoch {
	n := len(e.domain)
	return &Epoch{View: e.View, State: e.State, domain: make([]atomic.Pointer[[]byte], n), history: make([]atomic.Pointer[[]byte], n)}
}

// heapInUse is the live heap. The second collection frees what the
// first only moved to the sync.Pool victim caches.
func heapInUse() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// discardWriter is a reusable http.ResponseWriter that drops the body.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
