// Package ldv implements LRU stack distance profiling (Mattson et al., 1970)
// and the power-of-two stack distance histograms ("LRU stack distance
// vectors", LDVs) BarrierPoint uses to characterize the data reuse behaviour
// of inter-barrier regions.
//
// The profiler uses the classic Olken/Fenwick-tree algorithm: every cache
// line's most recent access time is marked in a binary indexed tree, so the
// number of distinct lines touched since the previous access to a given line
// (its LRU stack distance) is a suffix count, computed in O(log n) per
// access.
package ldv

import (
	"fmt"
	"math"
	"strings"

	"barrierpoint/internal/sparse"
	"barrierpoint/internal/trace"
)

// NumBuckets is the number of finite distance buckets: bucket 0 holds
// distance 0 (immediate reuse), bucket n>=1 holds distances in
// [2^(n-1), 2^n - 1]. 48 buckets cover any distance representable here.
const NumBuckets = 48

// Histogram is a power-of-two LRU stack distance histogram. Cold counts
// first-ever accesses to a line, which have no finite stack distance.
type Histogram struct {
	Buckets [NumBuckets]float64
	Cold    float64
}

// Bucket maps a finite stack distance to its histogram bucket index.
func Bucket(dist int) int {
	if dist <= 0 {
		return 0
	}
	b := 1 + int(math.Ilogb(float64(dist)))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// Add records one access with the given finite stack distance.
func (h *Histogram) Add(dist int) { h.Buckets[Bucket(dist)]++ }

// AddCold records one cold (first-touch) access.
func (h *Histogram) AddCold() { h.Cold++ }

// Total returns the total number of recorded accesses.
func (h *Histogram) Total() float64 {
	s := h.Cold
	for _, c := range h.Buckets {
		s += c
	}
	return s
}

// Weighted returns a copy of h with bucket n scaled by 2^(n/v) — the
// paper's long-latency emphasis (§III-A3). v <= 0 means unweighted.
// The cold bucket receives the maximum weight, as cold accesses reach
// furthest in the hierarchy.
func (h *Histogram) Weighted(v float64) Histogram {
	out := *h
	if v <= 0 {
		return out
	}
	for n := range out.Buckets {
		out.Buckets[n] *= math.Exp2(float64(n) / v)
	}
	out.Cold *= math.Exp2(float64(NumBuckets) / v)
	return out
}

// Normalized returns a copy of h scaled so all entries (including cold)
// sum to 1. An empty histogram normalizes to itself.
func (h *Histogram) Normalized() Histogram {
	out := *h
	t := h.Total()
	if t == 0 {
		return out
	}
	for n := range out.Buckets {
		out.Buckets[n] /= t
	}
	out.Cold /= t
	return out
}

// String renders non-empty buckets for debugging.
func (h *Histogram) String() string {
	var b strings.Builder
	b.WriteString("ldv{")
	first := true
	for n, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "2^%d:%.0f", n, c)
	}
	if h.Cold > 0 {
		if !first {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "cold:%.0f", h.Cold)
	}
	b.WriteByte('}')
	return b.String()
}

// Profiler computes LRU stack distances of a cache line access stream.
// The zero value is not usable; call NewProfiler.
//
// The per-line last-access index is a sparse.Table, not a Go map: Access
// is the innermost loop of the profiling pass, the map measured slower end
// to end (see sparse.Table), and Reset is a metadata clear, so profilers
// pool cleanly across regions (see internal/profile).
type Profiler struct {
	last sparse.Table[int] // line -> most recent access time (1-based)
	bit  []int             // Fenwick tree over access times; bit[0] unused
	time int               // number of accesses processed
}

// NewProfiler returns a profiler expecting roughly hint accesses (the hint
// only pre-sizes internal storage; any number of accesses is supported).
func NewProfiler(hint int) *Profiler {
	if hint < 16 {
		hint = 16
	}
	return &Profiler{
		last: *sparse.NewTable[int](hint / 4),
		bit:  make([]int, hint+1),
	}
}

// Reset clears all profiler state, keeping allocated storage.
func (p *Profiler) Reset() {
	p.last.Reset()
	clear(p.bit)
	p.time = 0
}

func (p *Profiler) bitAdd(i, delta int) {
	for ; i < len(p.bit); i += i & (-i) {
		p.bit[i] += delta
	}
}

func (p *Profiler) bitSum(i int) int { // prefix sum over [1, i]
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += p.bit[i]
	}
	return s
}

// Access processes one access to the given cache line and returns its LRU
// stack distance: the number of distinct other lines touched since the
// previous access to line. cold reports a first-ever access, in which case
// dist is meaningless.
func (p *Profiler) Access(line uint64) (dist int, cold bool) {
	p.time++
	t := p.time
	if t >= len(p.bit) {
		// Grow the Fenwick tree. Zero-extension would corrupt it — a new
		// high node covers a range of existing positions — so rebuild
		// from the active positions (each line's most recent access).
		p.bit = make([]int, 2*len(p.bit))
		p.last.Range(func(_ uint64, at int) {
			p.bitAdd(at, 1)
		})
	}
	prev, seen := p.last.Swap(line, t)
	if seen {
		// Distinct lines accessed strictly after prev: each line's most
		// recent access position is marked, so a suffix count suffices.
		dist = p.bitSum(t-1) - p.bitSum(prev)
		p.bitAdd(prev, -1)
	} else {
		cold = true
	}
	p.bitAdd(t, 1)
	return dist, cold
}

// Collect profiles a full stream and returns its LDV. Instruction fetches
// are not included; only data accesses contribute, as in the paper's
// Pintool.
func Collect(s trace.Stream) Histogram {
	var h Histogram
	p := NewProfiler(1024)
	var be trace.BlockExec
	for s.Next(&be) {
		for _, a := range be.Accs {
			d, cold := p.Access(trace.LineAddr(a.Addr))
			if cold {
				h.AddCold()
			} else {
				h.Add(d)
			}
		}
	}
	return h
}
