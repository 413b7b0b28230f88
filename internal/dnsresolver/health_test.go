package dnsresolver

import (
	"net/netip"
	"reflect"
	"sync"
	"testing"
	"time"
)

// healthEvent is one observation a pass makes.
type healthEvent struct {
	kind int // 0 success, 1 timeout, 2 rtt
	addr netip.Addr
	rtt  time.Duration
}

func applyHealth(h *Health, ev healthEvent) {
	switch ev.kind {
	case 0:
		h.ObserveSuccess(ev.addr)
	case 1:
		h.ObserveTimeout(ev.addr)
	default:
		h.ObserveRTT(ev.addr, ev.rtt)
	}
}

// TestHealthParallelFoldMatchesSerial hammers one tracker's observation
// paths from many goroutines over several passes — servers first seen
// mid-pass included, so the fresh table's insert path races with the
// published table's atomic path — and checks each pass's Checkpoint and
// ExportState against a tracker fed the same events serially. The folds
// are set unions and minimums, so arrival order must not matter.
func TestHealthParallelFoldMatchesSerial(t *testing.T) {
	const (
		passes  = 6
		servers = 40
		workers = 8
	)
	policy := DefaultPolicy()
	policy.SidelineAfter = 2
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}) }

	serial, parallel := NewHealth(), NewHealth()
	for pass := 0; pass < passes; pass++ {
		// A deterministic event mix: every pass adds servers (the fleet
		// grows mid-campaign), some servers only time out (so sidelining
		// triggers), and each server sees several RTTs whose minimum wins.
		var events []healthEvent
		for i := 0; i < servers*(pass+1)/passes+2; i++ {
			a := addr(i)
			switch {
			case i%5 == 0:
				events = append(events, healthEvent{kind: 1, addr: a}, healthEvent{kind: 1, addr: a})
			default:
				for k := 0; k < 4; k++ {
					rtt := time.Duration((i*7+k*13+pass)%50+1) * time.Millisecond
					events = append(events, healthEvent{kind: 0, addr: a}, healthEvent{kind: 2, addr: a, rtt: rtt})
				}
				if i%3 == 0 {
					events = append(events, healthEvent{kind: 1, addr: a})
				}
			}
		}

		for _, ev := range events {
			applyHealth(serial, ev)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker replays the whole pass from its own offset:
				// duplicates are what racing workers produce, and the folds
				// must absorb them.
				for k := range events {
					applyHealth(parallel, events[(k+w*len(events)/workers)%len(events)])
				}
			}(w)
		}
		wg.Wait()

		if got, want := parallel.ExportState(), serial.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: pre-checkpoint state differs\nparallel %+v\nserial   %+v", pass, got, want)
		}
		serial.Checkpoint(policy)
		parallel.Checkpoint(policy)
		if got, want := parallel.ExportState(), serial.ExportState(); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: folded state differs\nparallel %+v\nserial   %+v", pass, got, want)
		}
	}
	if serial.Events() == 0 {
		t.Fatal("no sideline transitions: the event mix no longer exercises sidelining")
	}
	if !reflect.DeepEqual(parallel.Sidelined(), serial.Sidelined()) {
		t.Fatalf("sidelined sets differ: %v vs %v", parallel.Sidelined(), serial.Sidelined())
	}
}

// TestHealthRestoreRoundTrip: an exported tracker, restored into a fresh
// one, exports the same state — fresh (this-pass) entries included — and
// keeps observing into the restored entries.
func TestHealthRestoreRoundTrip(t *testing.T) {
	h := NewHealth()
	a, b := netip.MustParseAddr("192.0.2.1"), netip.MustParseAddr("192.0.2.2")
	h.ObserveSuccess(a)
	h.ObserveRTT(a, 30*time.Millisecond)
	h.Checkpoint(DefaultPolicy())
	h.ObserveTimeout(b) // fresh this pass
	h.ObserveRTT(a, 20*time.Millisecond)

	st := h.ExportState()
	r := NewHealth()
	r.RestoreState(st)
	if got := r.ExportState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("restored state %+v, want %+v", got, st)
	}
	if got := r.EwmaRTT(a); got != 30*time.Millisecond {
		t.Fatalf("restored EWMA %v, want 30ms", got)
	}
	r.Checkpoint(DefaultPolicy())
	h.Checkpoint(DefaultPolicy())
	if got, want := r.ExportState(), h.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a pass, restored tracker %+v, original %+v", got, want)
	}
}

// Available reports whether addr is selectable (not sidelined). Unknown
// servers are available.
func (h *Health) Available(addr netip.Addr) bool {
	e, ok := h.known(addr)
	return !ok || e.sidelinedFor == 0
}

// EwmaRTT returns the current smoothed RTT estimate for addr (0 when the
// tracker has no estimate yet). The estimate changes only at Checkpoint.
func (h *Health) EwmaRTT(addr netip.Addr) time.Duration {
	if e, ok := h.known(addr); ok {
		return time.Duration(e.ewmaRTT)
	}
	return 0
}
