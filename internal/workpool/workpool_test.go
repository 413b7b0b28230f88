package workpool

import (
	"fmt"
	"sync"
	"testing"
)

// TestRunEachIndexOnce: every index in [0, n) runs exactly once whatever
// the pool size, and the inline path (one worker, or at most one index)
// runs them in order on the caller's goroutine.
func TestRunEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 1000} {
			t.Run(fmt.Sprintf("workers=%d/n=%d", workers, n), func(t *testing.T) {
				var mu sync.Mutex
				var order []int
				runs := make([]int, n)
				Run(workers, n, func(i int) {
					mu.Lock()
					defer mu.Unlock()
					runs[i]++
					order = append(order, i)
				})
				for i, c := range runs {
					if c != 1 {
						t.Fatalf("index %d ran %d times, want 1", i, c)
					}
				}
				if len(order) != n {
					t.Fatalf("%d calls, want %d", len(order), n)
				}
				if workers <= 1 || n <= 1 {
					for i, got := range order {
						if got != i {
							t.Fatalf("inline call %d ran index %d, want index order", i, got)
						}
					}
				}
			})
		}
	}
}
