// Command fix calls Greet through the Greeter interface, builds a Config
// and binds one of its fields to a flag, and touches a Counter.
package main

import (
	"flag"
	"fmt"

	"fix/internal/lib"
)

func main() {
	cfg := lib.Config{Used: 1}
	flag.IntVar(&cfg.Bound, "bound", 0, "a field the flag package sets")
	flag.Parse()
	var c lib.Counter
	c.Touch()
	fmt.Println(lib.NewGreeter().Greet(), cfg.Sum())
}
