// Package workpool runs indexed work over a bounded pool of goroutines.
package workpool

import (
	"sync"
	"sync/atomic"
)

// Run calls fn(i) for every i in [0, n) over at most workers goroutines.
// Each worker takes the next unclaimed index from a shared counter, so a
// worker that drew cheap indices keeps going while another finishes a
// slow one; which worker runs an index is left to scheduling. With
// workers <= 1 or n <= 1 it runs inline, in index order.
func Run(workers, n int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
