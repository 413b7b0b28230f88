// Package lib is the export check's fixture: one export of each kind
// the check tells apart.
package lib

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
