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
)

// FollowSource tails a live campaign's checkpoint directory: each
// Refresh rebuilds the current epoch with snapdisk.Dir.Recover — the
// campaign's own recovery rule, newest checkpoint plus the sealed WAL
// day groups after it — and swaps it in atomically. A `rrserve -follow`
// reader therefore serves answers at most one poll interval staler than
// the writer's last sealed round, without ever talking to the writer
// process: the checkpoint is an atomic rename, WAL replay drops any torn
// tail, and Recover reads the WAL before it picks the checkpoint, so a
// reader racing the writer sees complete, contiguous rounds only.
type FollowSource struct {
	dir *snapdisk.Dir
	cur atomic.Pointer[Epoch]

	mu      sync.Mutex // serializes Refresh: the poller and manual calls
	lastSig string

	pollOnce sync.Once
	started  bool
	stop     chan struct{}
	done     chan struct{}
}

// OpenFollow opens dir for tailing, read-only (the WAL is read via the
// filesystem, never opened for appending, so the writer is undisturbed).
// The directory may be empty — a campaign that has not sealed its first
// round yet; Epoch reports ok=false until one lands.
func OpenFollow(dir string) (*FollowSource, error) {
	d, err := snapdisk.OpenDirReadOnly(dir)
	if err != nil {
		return nil, err
	}
	s := &FollowSource{dir: d, stop: make(chan struct{}), done: make(chan struct{})}
	if _, err := s.Refresh(); err != nil {
		return nil, err
	}
	return s, nil
}

// signature fingerprints the directory state that determines the epoch:
// the set of checkpoint files (atomic renames — names change, contents
// never do) and the WAL's size (append-only between truncations).
func (s *FollowSource) signature() string {
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
func (s *FollowSource) Refresh() (swapped bool, err error) {
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
	s.cur.Store(&Epoch{View: store.SealedView(), State: state})
	s.lastSig = sig
	return true, nil
}

// Start polls the directory every interval on a background goroutine,
// refreshing the epoch as rounds land. Transient refresh errors (the
// writer mid-rotation) are skipped; the next tick retries. Call Close to
// stop. Start is idempotent — only the first call launches the poller.
func (s *FollowSource) Start(interval time.Duration) {
	s.pollOnce.Do(func() {
		s.started = true
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

// Close stops the poller started by Start (safe to call without one).
func (s *FollowSource) Close() {
	select {
	case <-s.stop:
		return // already closed
	default:
	}
	close(s.stop)
	if s.started {
		<-s.done
	}
}

// Epoch implements Source; ok is false until the first sealed round is
// visible on disk.
func (s *FollowSource) Epoch() (*Epoch, bool) {
	e := s.cur.Load()
	return e, e != nil
}
