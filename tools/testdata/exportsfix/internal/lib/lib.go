// Package lib is the export check's fixture: one export and one field of
// each kind the check tells apart.
package lib

import "sync/atomic"

// Unused has no caller at all.
func Unused() {}

// OwnTestOnly is called by lib's own tests only.
func OwnTestOnly() int { return 1 }

// SecondOnly is called only by the second module.
func SecondOnly() int { return 2 }

// Greeter is the interface the program calls Greet through.
type Greeter interface{ Greet() string }

type english struct{}

// Greet is reached only through Greeter.
func (english) Greet() string { return "hello" }

// NewGreeter returns the program's Greeter.
func NewGreeter() Greeter { return english{} }

// Config is a struct the program builds.
type Config struct {
	// Used is set and read by the program.
	Used int
	// TestOnly is set by lib's tests only.
	TestOnly int
	// Tagged is set by no code here; a decoder would set it by its tag.
	Tagged int `json:"tagged"`
	// Bound is set through its address, as a flag binding does.
	Bound int
}

// Sum reads every field of c.
func (c Config) Sum() int { return c.Used + c.TestOnly + c.Tagged + c.Bound }

// Counter counts calls in an atomic only lib's tests read.
type Counter struct{ calls atomic.Uint64 }

// Touch counts one call.
func (c *Counter) Touch() { c.calls.Add(1) }
