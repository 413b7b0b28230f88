// Command fix calls Greet through the Greeter interface.
package main

import (
	"fmt"

	"fix/internal/lib"
)

func main() { fmt.Println(lib.NewGreeter().Greet()) }
