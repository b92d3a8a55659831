package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, n := range []int{0, 1, 3, 64} {
			calls := make([]int32, n)
			For(n, func(i int) { atomic.AddInt32(&calls[i], 1) })
			for i, c := range calls {
				if c != 1 {
					t.Errorf("GOMAXPROCS=%d n=%d: fn(%d) called %d times", procs, n, i, c)
				}
			}
		}
	}
}
