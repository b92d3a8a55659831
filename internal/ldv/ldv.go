// Package ldv implements LRU stack distance profiling (Mattson et al., 1970)
// and the power-of-two stack distance histograms ("LRU stack distance
// vectors", LDVs) BarrierPoint uses to characterize the data reuse behaviour
// of inter-barrier regions.
//
// The profiler follows Olken's algorithm: every cache line's most recent
// access time is marked, so the number of distinct lines touched since the
// previous access to a given line (its LRU stack distance) is the count of
// marks after that access. The marks are a bitmap, one bit per access time,
// under a Fenwick tree of per-64-bit-word counts: a reuse costs a popcount
// and O(log(n/64)) tree steps, and a reuse within the clock's own word no
// tree step at all.
package ldv

import (
	"fmt"
	"math"
	"math/bits"
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
// Each line's last access time lives in a sparse.Lines page index: one hash
// probe per change of 16-line page, not per access. The times that are some
// line's latest access are marked in a bitmap, one bit per time, and a
// Fenwick tree sums the marks per 64-bit word; the clock's own word is
// counted in pending and joins the tree when the clock leaves it. Reset
// clears only the words used, so profilers pool cleanly across regions (see
// internal/profile).
type Profiler struct {
	last    sparse.Lines[int] // line -> most recent access time (1-based; 0 = never)
	n       int               // distinct lines seen: marks set
	marks   []uint64          // bit t set iff time t is a line's most recent access
	tree    []int             // Fenwick tree of per-word mark counts, words before word; tree[0] unused
	word    int               // the clock's word, whose marks pending counts
	pending int
	time    int // accesses processed; an int clock does not wrap
}

// NewProfiler returns a profiler expecting roughly hint accesses (the hint
// only pre-sizes internal storage; any number of accesses is supported).
func NewProfiler(hint int) *Profiler {
	words := hint/64 + 1
	return &Profiler{
		last:  *sparse.NewLines[int](hint / 64),
		marks: make([]uint64, words),
		tree:  make([]int, words+1),
	}
}

// Reset clears all profiler state, keeping allocated storage.
func (p *Profiler) Reset() {
	p.last.Reset()
	clear(p.marks[:p.word+1])
	clear(p.tree)
	p.n, p.word, p.pending, p.time = 0, 0, 0, 0
}

func (p *Profiler) treeAdd(w, delta int) {
	for i := w + 1; i < len(p.tree); i += i & (-i) {
		p.tree[i] += delta
	}
}

// before returns the number of marks at times [1, t].
func (p *Profiler) before(t int) int {
	w := t / 64
	s := bits.OnesCount64(p.marks[w] & (2<<(uint(t)%64) - 1))
	for i := w; i > 0; i -= i & (-i) {
		s += p.tree[i]
	}
	return s
}

// advance moves the clock into word w, the one after p.word: the old word's
// marks join the tree, and the bitmap doubles once the clock leaves it.
func (p *Profiler) advance(w int) {
	p.treeAdd(p.word, p.pending)
	p.word, p.pending = w, 0
	if w < len(p.marks) {
		return
	}
	// A new high tree node covers existing words, so the tree is rebuilt
	// from the bitmap in one linear pass; word w holds no marks yet.
	p.marks = append(p.marks, make([]uint64, len(p.marks))...)
	p.tree = make([]int, len(p.marks)+1)
	for i := 1; i < len(p.tree); i++ {
		p.tree[i] += bits.OnesCount64(p.marks[i-1])
		if j := i + i&(-i); j < len(p.tree) {
			p.tree[j] += p.tree[i]
		}
	}
}

// Access processes one access to the given cache line and returns its LRU
// stack distance: the number of distinct other lines touched since the
// previous access to line. cold reports a first-ever access, in which case
// dist is meaningless.
func (p *Profiler) Access(line uint64) (dist int, cold bool) {
	p.time++
	t := p.time
	if w := t / 64; w != p.word {
		p.advance(w)
	}
	slot := p.last.Slot(line)
	prev := *slot
	*slot = t
	if prev == 0 {
		p.n++
		cold = true
	} else {
		// Every line seen has one mark, at its latest access and before
		// t, so the lines accessed strictly after prev are the marks
		// after it.
		pw, bit := prev/64, uint64(1)<<(uint(prev)%64)
		if pw == p.word {
			// No marks after the clock's word: count within it alone.
			dist = bits.OnesCount64(p.marks[pw] &^ (bit<<1 - 1))
			p.pending--
		} else {
			dist = p.n - p.before(prev)
			p.treeAdd(pw, -1)
		}
		p.marks[pw] &^= bit
	}
	p.marks[t/64] |= uint64(1) << (uint(t) % 64)
	p.pending++
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
