package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/snapdisk"
	"rrdps/internal/world"
)

// sameAnswers asserts that two servers answer every endpoint — stats,
// the population, and a sample of domains and histories across the rank
// range — with 200 and byte-identical bodies.
func sameAnswers(t *testing.T, a, b *CheckpointSource) {
	t.Helper()
	e, ok := a.Epoch()
	if !ok {
		t.Fatal("source has no epoch")
	}
	ha, hb := New(Config{Source: a}).Handler(), New(Config{Source: b}).Handler()
	paths := []string{"/v1/stats", "/v1/domains", "/v1/domains?limit=7"}
	apexes := e.View.Apexes()
	for i := 0; i < len(apexes); i += 20 {
		paths = append(paths,
			"/v1/domain/"+string(apexes[i]),
			"/v1/domain/"+string(apexes[i])+"/history")
	}
	for _, path := range paths {
		wa, wb := get(t, ha, path, nil), get(t, hb, path, nil)
		if wa.Code != http.StatusOK || wb.Code != http.StatusOK {
			t.Fatalf("%s: status %d and %d, want 200/200", path, wa.Code, wb.Code)
		}
		if wa.Body.String() != wb.Body.String() {
			t.Errorf("%s: responses differ:\n%s\nvs\n%s", path, wa.Body.String(), wb.Body.String())
		}
	}
}

// TestFollowEqualsCheckpoint pins the follow mode's endgame: a source
// opened over an empty directory and refreshed after the campaign
// finished answers every endpoint byte-identically to a source opened
// over the finished directory — following a campaign to its end and
// loading it are the same service.
func TestFollowEqualsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	followed := openCheckpoint(t, dir)
	loaded := runDynamicsCampaign(t, dir, 5)
	if swapped, err := followed.Refresh(); err != nil || !swapped {
		t.Fatalf("Refresh after the campaign: swapped=%v err=%v, want a new epoch", swapped, err)
	}
	if swapped, err := followed.Refresh(); err != nil || swapped {
		t.Fatalf("Refresh over an unchanged directory: swapped=%v err=%v, want no swap", swapped, err)
	}
	if got, want := followed.Label(), loaded.Label(); got != want || got != 5 {
		t.Fatalf("labels %d and %d, want the final world day 5", got, want)
	}
	sameAnswers(t, followed, loaded)
}

// TestEpochSwapDropsMemo: bodies rendered and stored at one epoch must
// not outlive it. A followed source serves every apex's domain and
// history and the stats twice at epoch N, storing every body; after a
// refresh to a later round each answer must equal that of a source
// freshly opened over the same directory, and stats, domain and history
// bodies must each have changed somewhere, so stale bytes would show.
func TestEpochSwapDropsMemo(t *testing.T) {
	dir := t.TempDir()
	followed := openCheckpoint(t, dir)
	h := New(Config{Source: followed}).Handler()
	en := experiment.Dynamics{
		World:           world.New(dynamicsConfig()),
		CheckpointDir:   dir,
		CheckpointEvery: 2,
	}.NewEngine()
	defer en.Close()
	var paths []string
	bodies := func(h http.Handler) map[string]string {
		out := make(map[string]string, len(paths))
		for _, path := range paths {
			w := get(t, h, path, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d", path, w.Code)
			}
			out[path] = w.Body.String()
		}
		return out
	}

	for i := 0; i < 3; i++ {
		en.AppendDay()
	}
	if swapped, err := followed.Refresh(); err != nil || !swapped {
		t.Fatalf("Refresh at epoch N: swapped=%v err=%v", swapped, err)
	}
	e, _ := followed.Epoch()
	paths = []string{"/v1/stats"}
	for _, apex := range e.View.Apexes() {
		paths = append(paths, "/v1/domain/"+string(apex), "/v1/domain/"+string(apex)+"/history")
	}
	before := bodies(h)
	bodies(h) // the repeat stores every body in epoch N's slots

	for i := 0; i < 4; i++ {
		en.AppendDay()
	}
	if swapped, err := followed.Refresh(); err != nil || !swapped {
		t.Fatalf("Refresh to a later round: swapped=%v err=%v", swapped, err)
	}
	after, want := bodies(h), bodies(New(Config{Source: openCheckpoint(t, dir)}).Handler())
	changed := map[string]int{}
	for _, path := range paths {
		if after[path] != want[path] {
			t.Fatalf("%s after the swap:\n%s\nwant\n%s", path, after[path], want[path])
		}
		if after[path] != before[path] {
			route := "domain"
			if path == "/v1/stats" {
				route = "stats"
			} else if strings.HasSuffix(path, "/history") {
				route = "history"
			}
			changed[route]++
		}
	}
	if changed["stats"] == 0 || changed["domain"] == 0 || changed["history"] == 0 {
		t.Fatalf("bodies changed per route %v: the later round must change every route", changed)
	}
}

// TestOpenCheckpointServesWALRounds: a campaign killed between
// checkpoints leaves its newest rounds only as sealed WAL groups, and a
// source opened over that directory must serve the newest of them —
// the recovery rule a resume applies — not the older checkpoint's
// round. Its answers equal those of a source that followed the writer.
func TestOpenCheckpointServesWALRounds(t *testing.T) {
	dir := t.TempDir()
	followed := openCheckpoint(t, dir)
	en := experiment.Dynamics{
		World:           world.New(dynamicsConfig()),
		CheckpointDir:   dir,
		CheckpointEvery: 7,
	}.NewEngine()
	for i := 0; i < 10; i++ {
		en.AppendDay()
	}
	en.Close() // no Checkpoint: a crash after the tenth sealed day

	d, err := snapdisk.OpenDirReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, label, ok, err := d.LatestCheckpoint(); err != nil || !ok || label >= en.WorldDay() {
		t.Fatalf("newest checkpoint at day %d (ok=%v err=%v), want one older than day %d", label, ok, err, en.WorldDay())
	}

	loaded := openCheckpoint(t, dir)
	var stats struct {
		WorldDay int `json:"world_day"`
	}
	if err := json.Unmarshal(get(t, New(Config{Source: loaded}).Handler(), "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.WorldDay != en.WorldDay() || loaded.Label() != en.WorldDay() {
		t.Fatalf("serving world day %d (label %d), want the newest sealed day %d", stats.WorldDay, loaded.Label(), en.WorldDay())
	}
	if _, err := followed.Refresh(); err != nil {
		t.Fatal(err)
	}
	sameAnswers(t, loaded, followed)
}

// TestFollowEmptyDir: attaching to a campaign that has not sealed its
// first round yet is not an error — the source reports no epoch until
// one lands, and its poller starts and stops cleanly.
func TestFollowEmptyDir(t *testing.T) {
	src := openCheckpoint(t, t.TempDir())
	if _, ok := src.Epoch(); ok {
		t.Fatal("epoch reported over an empty directory")
	}
	if got := src.Label(); got != -1 {
		t.Fatalf("Label() = %d without an epoch, want -1", got)
	}
	if swapped, err := src.Refresh(); err != nil || swapped {
		t.Fatalf("Refresh over an empty directory: swapped=%v err=%v", swapped, err)
	}
	src.Start(time.Millisecond)
	src.Start(time.Millisecond)
	src.Close()
	src.Close()
}

// TestFollowTailsLiveWriter is the -race keystone for follow mode: a
// reader polling the checkpoint directory while the campaign engine is
// actively sealing rounds into it must only ever observe complete
// epochs — contiguous days from 0 whose latest sealed day matches the
// campaign cursor — advancing monotonically, and must have served every
// sealed day's epoch within one seal cycle by the time the writer is
// done. The checkpoint cadence of 2 makes the writer alternate between
// WAL-append and checkpoint-then-truncate rotations under the reader.
//
// Meanwhile parallel HTTP clients hammer every data endpoint across the
// epoch swaps: each answer must succeed and come from one epoch — the
// stats endpoint reports the store and the campaign cursor side by side,
// so a response that mixed two rounds shows as a retained-day count that
// does not match the days collected.
func TestFollowTailsLiveWriter(t *testing.T) {
	const days = 8
	dir := t.TempDir()
	fs := openCheckpoint(t, dir)
	fs.Start(100 * time.Microsecond)
	defer fs.Close()
	srv := New(Config{Source: fs})

	clientsDone := make(chan struct{})
	var clients sync.WaitGroup
	var answered atomic.Int64
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			for {
				select {
				case <-clientsDone:
					return
				default:
				}
				e, ok := fs.Epoch()
				if !ok {
					continue
				}
				apexes := e.View.Apexes()
				apex := string(apexes[i%len(apexes)])
				for _, path := range []string{"/v1/domain/" + apex, "/v1/domain/" + apex + "/history", "/v1/domains?limit=5"} {
					if w := get(t, srv.Handler(), path, nil); w.Code != http.StatusOK {
						t.Errorf("%s: status %d", path, w.Code)
						return
					}
				}
				var stats struct {
					Store struct {
						Days int `json:"days"`
					} `json:"store"`
					Dynamics struct {
						DaysCollected int `json:"days_collected"`
					} `json:"dynamics"`
				}
				if err := json.Unmarshal(get(t, srv.Handler(), "/v1/stats", nil).Body.Bytes(), &stats); err != nil {
					t.Error(err)
					return
				}
				// The writer keeps the default 2-day window, and every epoch
				// (checkpoint or WAL replay) carries it.
				if want := min(stats.Dynamics.DaysCollected, 2); stats.Store.Days != want {
					t.Errorf("store.days=%d with days_collected=%d: response mixed two epochs",
						stats.Store.Days, stats.Dynamics.DaysCollected)
					return
				}
				answered.Add(1)
			}
		}(i)
	}

	// Writer and reader run in lockstep: the writer seals a day, then
	// waits for the reader to observe that day's epoch before sealing
	// the next. That asserts every sealed day is served — not just the
	// final one — and stays deterministic when the test runs on a loaded
	// machine (a free-running writer can outpace the reader, which would
	// turn "observe each day" into a scheduling lottery). The 100µs
	// poller still races every WAL append and checkpoint rotation in
	// between.
	var (
		wg        sync.WaitGroup
		readerErr error
		// Buffered so a send can never block the test goroutine if the
		// reader bails out on its deadline; the ack is what enforces the
		// lockstep.
		writerDay = make(chan int, days)
		readerAck = make(chan struct{})
	)
	checkEpoch := func(e *Epoch) int {
		t.Helper()
		if e.State.Dynamics == nil {
			t.Error("epoch carries no dynamics state")
			return -1
		}
		latest, ok := e.View.LatestDay()
		if !ok {
			t.Error("epoch view holds no sealed day")
			return -1
		}
		if want := e.State.Dynamics.NextDay - 1; latest != want {
			t.Errorf("partial epoch: view at day %d, cursor says %d", latest, want)
		}
		// The retained days must be a contiguous run ending at latest — a
		// gap means the reader stitched a WAL onto a checkpoint it does
		// not extend (the read-ordering race Refresh is built to avoid).
		days := e.View.Days()
		for i, d := range days {
			if want := latest - (len(days) - 1 - i); d != want {
				t.Errorf("retained days %v are not contiguous up to %d", days, latest)
				break
			}
		}
		return latest
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := -1
		for day := range writerDay {
			// Poll until this sealed day is visible; the poller fires every
			// 100µs, so "within one seal cycle" means almost immediately.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if e, ok := fs.Epoch(); ok {
					got := checkEpoch(e)
					if got < last {
						t.Errorf("epoch went backwards: day %d after day %d", got, last)
					}
					if got > last {
						last = got
					}
					if got >= day {
						break
					}
				}
				if time.Now().After(deadline) {
					readerErr = http.ErrServerClosed // any sentinel: flag below
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
			readerAck <- struct{}{}
		}
	}()

	en := experiment.Dynamics{
		World:           world.New(dynamicsConfig()),
		CheckpointDir:   dir,
		CheckpointEvery: 2,
	}.NewEngine()
	for day := 0; day < days; day++ {
		en.AppendDay()
		writerDay <- day
		select {
		case <-readerAck:
		case <-time.After(10 * time.Second):
			t.Fatal("reader never acknowledged a sealed day")
		}
	}
	en.Checkpoint()
	en.Close()
	close(writerDay)
	wg.Wait()
	close(clientsDone)
	clients.Wait()
	if answered.Load() == 0 {
		t.Fatal("no client request was answered while the writer ran")
	}
	if readerErr != nil {
		t.Fatal("reader timed out waiting for a sealed day to become visible")
	}

	// After the final forced checkpoint, one manual refresh must land the
	// reader on the finished campaign.
	if _, err := fs.Refresh(); err != nil {
		t.Fatal(err)
	}
	e, ok := fs.Epoch()
	if !ok {
		t.Fatal("no epoch after the campaign finished")
	}
	if latest := checkEpoch(e); latest != days-1 {
		t.Fatalf("final epoch at day %d, want %d", latest, days-1)
	}
}
