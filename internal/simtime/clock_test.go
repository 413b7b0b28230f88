package simtime

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSimulatedStartsAtEpoch(t *testing.T) {
	c := NewSimulated()
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
}

func TestSimulatedAdvance(t *testing.T) {
	c := NewSimulated()
	c.Advance(90 * time.Minute)
	want := Epoch.Add(90 * time.Minute)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSimulatedAdvanceDays(t *testing.T) {
	c := NewSimulated()
	c.AdvanceDays(3)
	want := Epoch.Add(72 * time.Hour)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestSimulatedAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewSimulated().Advance(-time.Second)
}

func TestSimulatedSetBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(before now) did not panic")
		}
	}()
	c := NewSimulated()
	c.Set(Epoch.Add(-time.Hour))
}

func TestSimulatedSetForward(t *testing.T) {
	c := NewSimulated()
	target := Epoch.Add(7 * 24 * time.Hour)
	c.Set(target)
	if got := c.Now(); !got.Equal(target) {
		t.Fatalf("Now() = %v, want %v", got, target)
	}
}

func TestDay(t *testing.T) {
	tests := []struct {
		name    string
		advance time.Duration
		want    int
	}{
		{"epoch", 0, 0},
		{"partial day", 23 * time.Hour, 0},
		{"exactly one day", 24 * time.Hour, 1},
		{"mid second day", 36 * time.Hour, 1},
		{"six weeks", 42 * 24 * time.Hour, 42},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewSimulated()
			c.Advance(tt.advance)
			if got := Day(c); got != tt.want {
				t.Fatalf("Day() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestRealClockClose(t *testing.T) {
	before := time.Now()
	got := Real{}.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Real.Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestSimulatedConcurrentAdvance(t *testing.T) {
	c := NewSimulated()
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Advance(time.Minute)
			_ = c.Now()
		}()
	}
	wg.Wait()
	want := Epoch.Add(n * time.Minute)
	if got := c.Now(); !got.Equal(want) {
		t.Fatalf("after %d concurrent advances Now() = %v, want %v", n, got, want)
	}
}

// TestSimulatedNowDuringAdvance reads the clock from several goroutines
// while one goroutine advances it. Every reader must see whole published
// instants (a multiple of the step past Epoch) that never move backwards;
// under -race this also checks the lock-free read path.
func TestSimulatedNowDuringAdvance(t *testing.T) {
	c := NewSimulated()
	const steps = 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := Epoch
			for {
				select {
				case <-done:
					return
				default:
				}
				now := c.Now()
				if now.Before(last) {
					t.Errorf("Now() went backwards: %v after %v", now, last)
					return
				}
				if d := now.Sub(Epoch); d%time.Second != 0 || d > steps*time.Second {
					t.Errorf("Now() = %v is not a published instant", now)
					return
				}
				last = now
			}
		}()
	}
	for i := 0; i < steps; i++ {
		c.Advance(time.Second)
	}
	close(done)
	wg.Wait()
	if got, want := c.Now(), Epoch.Add(steps*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v after %d advances, want %v", got, steps, want)
	}
}

// Day returns the zero-based number of whole 24-hour days elapsed since
// Epoch at the clock's current time.
func Day(c Clock) int {
	return int(c.Now().Sub(Epoch) / (24 * time.Hour))
}

// Set jumps the clock to the given instant. It panics if t is earlier than
// the current time.
func (c *Simulated) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := *c.now.Load(); t.Before(cur) {
		panic(fmt.Sprintf("simtime: Set to %v before current %v", t, cur))
	}
	c.now.Store(&t)
}
