// Package simtime provides a controllable clock for the simulated Internet.
//
// Every component that needs time (DNS TTL expiry, purge schedulers, the
// daily measurement cadence) takes a Clock rather than calling time.Now
// directly, so experiments are deterministic and six simulated weeks run in
// milliseconds of wall time.
package simtime

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Clock supplies the current time to simulation components.
type Clock interface {
	// Now returns the current simulation time.
	Now() time.Time
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

var _ Clock = Real{}

// Epoch is the default starting instant for simulated clocks. The concrete
// date is arbitrary; measurements report relative days and weeks.
var Epoch = time.Date(2017, time.September, 4, 0, 0, 0, 0, time.UTC)

// Simulated is a manually advanced Clock. The zero value is not usable; use
// NewSimulated. Simulated is safe for concurrent use.
//
// Now is lock-free: the current instant is published through an atomic
// pointer, so the many concurrent readers of a measurement pass (every
// resolution reads the clock several times) share the pointer's cache
// line instead of all writing a read-lock counter. Writers serialize on mu
// and publish a fresh instant; simulation time only moves between passes,
// so they are rare.
type Simulated struct {
	mu  sync.Mutex
	now atomic.Pointer[time.Time]
}

// NewSimulated returns a simulated clock starting at Epoch.
func NewSimulated() *Simulated { return NewSimulatedAt(Epoch) }

// NewSimulatedAt returns a simulated clock starting at the given instant.
func NewSimulatedAt(start time.Time) *Simulated {
	c := &Simulated{}
	c.now.Store(&start)
	return c
}

var _ Clock = (*Simulated)(nil)

// Now implements Clock.
func (c *Simulated) Now() time.Time { return *c.now.Load() }

// Advance moves the clock forward by d. It panics if d is negative, because
// simulation time never flows backwards and a negative advance always
// indicates a bug in the caller.
func (c *Simulated) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("simtime: Advance by negative duration %v", d))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.now.Load().Add(d)
	c.now.Store(&t)
}

// AdvanceDays moves the clock forward by n 24-hour days.
func (c *Simulated) AdvanceDays(n int) {
	if n < 0 {
		panic(fmt.Sprintf("simtime: AdvanceDays by negative count %d", n))
	}
	c.Advance(time.Duration(n) * 24 * time.Hour)
}
