// Package parallel runs index-addressed work on a fixed set of goroutines.
package parallel

import (
	"sync"
	"sync/atomic"
)

// For calls fn(w, i) for every i in [0, n) on workers goroutines, where
// w in [0, workers) identifies the calling goroutine, so fn can index
// per-worker state by it. Indices are handed out in chunks of chunk, in
// increasing order; which goroutine gets which chunk depends on
// scheduling. For returns once every call has.
func For(workers, n, chunk int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				for i := lo; i < min(lo+chunk, n); i++ {
					fn(w, i)
				}
			}
		}()
	}
	wg.Wait()
}
