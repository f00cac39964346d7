// Package par is the repository's one bounded worker pool.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) and returns when every call has
// returned. Indices are handed out in ascending order from a shared counter
// to at most min(workers, n) goroutines, so a long call never holds up the
// indices behind it. workers <= 0 selects runtime.GOMAXPROCS(0); with one
// worker (or one index) the calls run inline on the calling goroutine.
func For(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
