// Package workpool runs indexed work over a bounded pool of goroutines.
package workpool

import "sync"

// Run calls fn(i) for every i in [0, n) over at most workers goroutines.
// Indices are dealt round-robin (worker w takes i ≡ w mod workers), so no
// channel hand-off is needed and each index's worker is fixed by (workers,
// n). With workers <= 1 or n <= 1 it runs inline, in index order.
func Run(workers, n int, fn func(i int)) {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}
