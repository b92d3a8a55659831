package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few virtual cores of a shared host whose speed, as
// the guest sees it, drifts by tens of percent over minutes: a neighbour on
// the sibling hyperthread, stolen time, a contended last-level cache. Every
// phase of a rep and the children's CPU time inflate together, so no
// statistic of one run's samples removes it.
//
// The calibrator measures that speed from inside the run. It is a fixed
// amount of work — dependent loads over a working set larger than the
// last-level cache's share, map lookups, integer mixing and floating-point
// accumulation, the instruction mix of the program under test — done by the
// client goroutine between reps, while the closed loop has nothing in flight.
// It calls nothing of the repository, so no later change can speed it up.
// Timed quantities are then reported at reference speed: multiplied by
// calReferenceMs over the calibration time observed around them — latencies
// by the pass's wall-clock time, the children's CPU time by the pass's own
// CPU time, which the kernel accounts with the same clock as theirs. A
// neighbour inside the guest slows the first and leaves the second alone; a
// slower host inflates both.
type calibrator struct {
	chase []uint32 // one random cycle through every slot
	table map[uint64]uint32
	vec   []float64
	at    uint32
	sink  float64
}

const (
	calChaseSlots = 4 << 20 // × 4 B = 16 MiB
	calChaseSteps = 6000
	calTableSize  = 1 << 15
	calTableOps   = 12000
	calMixSteps   = 250000
	calVecLen     = 8192
	calVecPasses  = 12

	// calReferenceMs is what one calibration pass takes on the machine the
	// first baseline was measured on when it is quiet. It only fixes the
	// scale of the reported times; comparisons between runs do not depend
	// on it.
	calReferenceMs = 2.0

	// calBurst passes make one reading (their median): a single pass is
	// short enough for a timer interrupt to show.
	calBurst = 5
)

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1)) // the same work in every run
	c := &calibrator{
		chase: singleCycle(calChaseSlots, rng),
		table: make(map[uint64]uint32, calTableSize),
		vec:   make([]float64, calVecLen),
	}
	for i := 0; i < calTableSize; i++ {
		c.table[mix64(uint64(i))] = uint32(i)
	}
	for i := range c.vec {
		c.vec[i] = rng.Float64()
	}
	return c
}

// singleCycle returns a permutation of 0..n-1 that is one cycle (Sattolo's
// algorithm), so following it visits every slot before it repeats.
func singleCycle(n int, rng *rand.Rand) []uint32 {
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// threadCPU is the CPU time the calling thread has used so far, from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID): getrusage only moves at scheduler
// ticks.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// pass does the fixed work once and returns how long it took by the wall
// clock and in CPU time of the thread that did it.
func (c *calibrator) pass() (wall, cpu time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	t0 := time.Now()
	at := c.at
	for i := 0; i < calChaseSteps; i++ {
		at = c.chase[at]
	}
	c.at = at
	var hits uint32
	for i := 0; i < calTableOps; i++ {
		hits += c.table[mix64(uint64(i&(calTableSize-1)))]
	}
	x := uint64(at) | 1
	for i := 0; i < calMixSteps; i++ {
		x = mix64(x)
	}
	var acc float64
	for p := 0; p < calVecPasses; p++ {
		for _, v := range c.vec {
			acc += v * v
		}
	}
	c.sink += acc + float64(hits) + float64(x&1)
	return time.Since(t0), threadCPU() - c0
}

// reading is one measurement of host speed: the median wall-clock time and
// the median CPU time of calBurst passes, in ms.
func (c *calibrator) reading() (wallMs, cpuMs float64) {
	var wall, cpu [calBurst]float64
	for i := range wall {
		w, u := c.pass()
		wall[i], cpu[i] = float64(w.Nanoseconds())/1e6, float64(u.Nanoseconds())/1e6
	}
	return median(wall[:]), median(cpu[:])
}
