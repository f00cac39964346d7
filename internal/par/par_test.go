package par

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's ID, parsed from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 3, 200} {
			bound := workers
			if bound <= 0 {
				bound = runtime.GOMAXPROCS(0)
			}
			bound = max(min(bound, n), 1)

			calls := make([]atomic.Int32, n)
			last := make([]int, bound) // last[w]: worker w's latest index; only w writes it
			for w := range last {
				last[w] = -1
			}
			var inFlight, peak atomic.Int32
			caller := goid()
			For(n, workers, func(w, i int) {
				cur := inFlight.Add(1)
				defer inFlight.Add(-1)
				for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
				}
				calls[i].Add(1)
				if w < 0 || w >= bound {
					t.Errorf("n=%d workers=%d: worker ID %d outside [0, %d)", n, workers, w, bound)
					return
				}
				if i <= last[w] {
					t.Errorf("n=%d workers=%d: worker %d took index %d after %d", n, workers, w, i, last[w])
				}
				last[w] = i
				if workers == 1 && goid() != caller {
					t.Errorf("n=%d workers=1: index %d ran off the calling goroutine", n, i)
				}
				runtime.Gosched() // let the other workers overlap this call
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			if p := int(peak.Load()); p > bound {
				t.Fatalf("n=%d workers=%d: %d calls in flight, bound %d", n, workers, p, bound)
			}
		}
	}
}
