// Package serve is the residual-resolution lookup service: an HTTP API
// answering "is this domain's origin exposed behind its DPS, and through
// which residual records?" straight off a snapstore — the paper's end
// product turned from batch campaign reports into a long-lived query
// surface.
//
// The package is layered the way a production proxy is layered: one
// storage source over a campaign's checkpoint directory, HTTP handlers
// that only ever read immutable Epochs, and middleware for API-key auth,
// token-bucket rate limiting, and request metrics. Every epoch is built
// with the campaigns' own recovery rule (snapdisk.Dir.Recover), loaded
// once or refreshed as the writing campaign seals rounds; readers swap
// to a new epoch atomically and never touch the writer.
package serve

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rrdps/internal/core/experiment"
	"rrdps/internal/snapdisk"
	"rrdps/internal/snapstore"
)

// Epoch is one sealed round's queryable state: an immutable store view
// plus the campaign cursor decoded from the same round, so every answer
// a handler builds is internally consistent. Epochs are never mutated
// after construction; only their body slots (per route and View.Index)
// fill once, on a repeat request, and go with the epoch at the next swap.
type Epoch struct {
	View  *snapstore.View
	State experiment.CampaignState

	domain, history []atomic.Pointer[[]byte]
	stats           atomic.Pointer[[]byte]
}

// CheckpointSource serves a campaign checkpoint directory, read-only:
// nothing in it is created or truncated, and the WAL is read through
// the filesystem, never opened for appending, so a writing campaign is
// undisturbed. Each epoch is built with snapdisk.Dir.Recover — the
// campaigns' own recovery rule, newest checkpoint plus the sealed WAL
// groups after it — so the source serves the newest sealed round, mid-
// campaign directories included.
//
// Refresh re-derives the epoch when the directory changed and swaps it
// in atomically; Start runs Refresh on a poller (`rrserve -follow`), so
// answers are at most one poll interval staler than the writer's last
// sealed round. The checkpoint is an atomic rename, WAL replay drops
// any torn tail, and Recover reads the WAL before it picks the
// checkpoint, so a reader racing the writer sees complete, contiguous
// rounds only.
type CheckpointSource struct {
	dir *snapdisk.Dir
	cur atomic.Pointer[Epoch]

	mu      sync.Mutex // serializes Refresh: the poller and manual calls
	lastSig string

	pollOnce  sync.Once
	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{} // closed when the poller has exited
}

// OpenCheckpoint opens dir and loads its newest sealed round. A missing
// directory, or one whose state does not decode, is an error: a lookup
// service pointed at the wrong path must fail loudly, not serve an
// empty world. An existing directory with nothing sealed yet (a
// campaign before its first round) opens with no epoch; Epoch reports
// ok=false until a Refresh finds one.
func OpenCheckpoint(dir string) (*CheckpointSource, error) {
	d, err := snapdisk.OpenDirReadOnly(dir)
	if err != nil {
		return nil, err
	}
	s := &CheckpointSource{dir: d, stop: make(chan struct{}), done: make(chan struct{})}
	if _, err := s.Refresh(); err != nil {
		return nil, err
	}
	return s, nil
}

// signature fingerprints the directory state that determines the epoch:
// the set of checkpoint files (atomic renames — names change, contents
// never do) and the WAL's size (append-only between truncations).
func (s *CheckpointSource) signature() string {
	var parts []string
	if entries, err := os.ReadDir(s.dir.Path()); err == nil {
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				parts = append(parts, fmt.Sprintf("%s:%d", e.Name(), info.Size()))
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Refresh re-derives the epoch from disk and swaps it in if the
// directory changed since the last call. It returns whether a new epoch
// was published. Errors leave the previous epoch serving: a reader must
// degrade to stale answers, not to no answers, while the writer is
// mid-rotation.
func (s *CheckpointSource) Refresh() (swapped bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	sig := s.signature()
	if sig == s.lastSig {
		return false, nil
	}
	store, blob, ok, err := s.dir.Recover(0)
	if err != nil {
		return false, err
	}
	if !ok {
		// Nothing sealed yet; keep reporting "no epoch".
		s.lastSig = sig
		return false, nil
	}
	state, err := experiment.DecodeCampaignState(blob)
	if err != nil {
		return false, err
	}
	v := store.SealedView()
	n := v.Stats().Apexes
	s.cur.Store(&Epoch{View: v, State: state, domain: make([]atomic.Pointer[[]byte], n), history: make([]atomic.Pointer[[]byte], n)})
	s.lastSig = sig
	return true, nil
}

// Start polls the directory every interval on a background goroutine,
// refreshing the epoch as rounds land. Transient refresh errors (the
// writer mid-rotation) are skipped; the next tick retries. Call Close to
// stop. Start is idempotent — only the first call launches the poller.
func (s *CheckpointSource) Start(interval time.Duration) {
	s.pollOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.Refresh() //nolint:errcheck // transient; retried next tick
				}
			}
		}()
	})
}

// Close stops the poller started by Start and waits for it to exit. It
// is safe to call without a poller and more than once; Start after
// Close does nothing.
func (s *CheckpointSource) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.pollOnce.Do(func() { close(s.done) }) // no poller ever started
		<-s.done
	})
}

// Epoch returns the current epoch; ok is false until a sealed round is
// visible on disk.
func (s *CheckpointSource) Epoch() (*Epoch, bool) {
	e := s.cur.Load()
	return e, e != nil
}

// Label returns the served epoch's world day, -1 without an epoch. On a
// finished campaign directory it is the final checkpoint's label.
func (s *CheckpointSource) Label() int {
	e, ok := s.Epoch()
	if !ok {
		return -1
	}
	return e.State.WorldDay()
}
