// Package par is the repository's one bounded worker pool.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(worker, i) once for every i in [0, n) and returns when every
// call has returned. Indices are handed out in ascending order from a shared
// counter to at most min(workers, n) goroutines, so a long call never holds
// up the indices behind it; worker is the goroutine's ID in [0, that bound),
// for callers that keep per-worker state. workers <= 0 selects
// runtime.GOMAXPROCS(0); with one worker (or one index) the calls run inline
// on the calling goroutine.
func For(n, workers int, fn func(worker, i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
