// Command second is a caller module: it alone calls lib.SecondOnly.
package main

import (
	"fmt"

	"fix/internal/lib"
)

func main() { fmt.Println(lib.SecondOnly()) }
