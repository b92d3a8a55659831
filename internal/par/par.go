// Package par runs independent, index-addressed work on a bounded pool: the
// one parallel loop behind region profiling, profile-cache misses, a warm-up
// pass's per-core tracking and k-means fits.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n) on up to GOMAXPROCS goroutines and
// returns when every call has. Indices are claimed one at a time, so uneven
// work still balances; with one worker the calls run in order on the caller.
func For(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
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
