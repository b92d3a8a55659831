package ldv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"barrierpoint/internal/trace"
)

// naiveStackDistance is the O(n²) reference: the number of distinct lines
// accessed since the previous access to line, or -1 if cold.
func naiveStackDistance(history []uint64, line uint64) int {
	seen := make(map[uint64]bool)
	for i := len(history) - 1; i >= 0; i-- {
		if history[i] == line {
			return len(seen)
		}
		seen[history[i]] = true
	}
	return -1
}

func TestProfilerAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewProfiler(16)
	var history []uint64
	for i := 0; i < 5000; i++ {
		line := uint64(rng.Intn(64))
		want := naiveStackDistance(history, line)
		dist, cold := p.Access(line)
		if want == -1 {
			if !cold {
				t.Fatalf("access %d line %d: expected cold", i, line)
			}
		} else {
			if cold {
				t.Fatalf("access %d line %d: unexpected cold", i, line)
			}
			if dist != want {
				t.Fatalf("access %d line %d: dist = %d, want %d", i, line, dist, want)
			}
		}
		history = append(history, line)
	}
}

func TestProfilerQuick(t *testing.T) {
	// Property: for arbitrary short traces, the profiler matches
	// the naive reference exactly.
	f := func(raw []uint8) bool {
		p := NewProfiler(4)
		var history []uint64
		for _, r := range raw {
			line := uint64(r % 16)
			want := naiveStackDistance(history, line)
			dist, cold := p.Access(line)
			if (want == -1) != cold {
				return false
			}
			if want >= 0 && dist != want {
				return false
			}
			history = append(history, line)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestProfilerEdgeCases checks the profiler against naiveStackDistance
// where the random tests above do not reach: lines over hundreds of pages
// with keys up to 2^40, streams many 64-access words long from the smallest
// profiler (so the bitmap grows several times), reuses at the first access
// of a word (when the previous word's marks join the tree), and a short
// stream, then a long one, after Reset, as the profiling pass's pool reuses
// profilers.
func TestProfilerEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := func(n, lines int, base uint64, stride uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = base + uint64(rng.Intn(lines))*stride
		}
		return s
	}
	// wordReuse reuses a line at every access that opens a 64-access word
	// (access times count from 1): a recent one, marked in the word being
	// left, or an old one.
	wordReuse := func(n int) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			switch t := i + 1; {
			case t%64 != 0:
				s[i] = uint64(1000 + i)
			case t%128 == 0:
				s[i] = s[i-1-rng.Intn(10)]
			default:
				s[i] = s[rng.Intn(i)]
			}
		}
		return s
	}
	cases := []struct {
		name    string
		streams [][]uint64 // profiled in turn, with a Reset between
	}{
		{"pages", [][]uint64{random(3000, 400, 0, 16*7)}},
		{"high keys", [][]uint64{random(3000, 900, 1<<40-500*16, 16)}},
		{"growth", [][]uint64{random(3000, 200, 1<<20, 3)}},
		{"word reuse", [][]uint64{wordReuse(2000)}},
		{"reset", [][]uint64{random(2500, 600, 1<<30, 5), random(40, 8, 1<<30, 5), random(3000, 300, 1<<30, 5)}},
	}
	for _, c := range cases {
		p := NewProfiler(4)
		for si, stream := range c.streams {
			for i, line := range stream {
				want := naiveStackDistance(stream[:i], line)
				dist, cold := p.Access(line)
				if cold != (want == -1) || (!cold && dist != want) {
					t.Fatalf("%s: stream %d access %d line %#x: (dist %d, cold %v), want %d (-1 = cold)",
						c.name, si, i, line, dist, cold, want)
				}
			}
			p.Reset()
		}
	}
}

func TestProfilerSequentialSweep(t *testing.T) {
	// Sweeping N lines cyclically: every revisit has distance N-1.
	const n = 100
	p := NewProfiler(16)
	for i := 0; i < n; i++ {
		if _, cold := p.Access(uint64(i)); !cold {
			t.Fatal("first touch not cold")
		}
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			dist, cold := p.Access(uint64(i))
			if cold || dist != n-1 {
				t.Fatalf("pass %d line %d: dist=%d cold=%v, want %d", pass, i, dist, cold, n-1)
			}
		}
	}
}

func TestProfilerImmediateReuse(t *testing.T) {
	p := NewProfiler(4)
	p.Access(42)
	dist, cold := p.Access(42)
	if cold || dist != 0 {
		t.Errorf("immediate reuse: dist=%d cold=%v", dist, cold)
	}
}

func TestProfilerReset(t *testing.T) {
	p := NewProfiler(4)
	p.Access(1)
	p.Access(2)
	p.Reset()
	if _, cold := p.Access(1); !cold {
		t.Error("after Reset, access was not cold")
	}
}

func TestProfilerGrowth(t *testing.T) {
	// Exceed the initial hint to exercise bitmap growth.
	p := NewProfiler(4)
	for i := 0; i < 10000; i++ {
		p.Access(uint64(i % 50))
	}
	dist, cold := p.Access(0)
	if cold || dist != 49 {
		t.Errorf("after growth: dist=%d cold=%v, want 49", dist, cold)
	}
}

func TestBucket(t *testing.T) {
	cases := []struct{ dist, bucket int }{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := Bucket(c.dist); got != c.bucket {
			t.Errorf("Bucket(%d) = %d, want %d", c.dist, got, c.bucket)
		}
	}
	if Bucket(math.MaxInt32) >= NumBuckets {
		t.Error("bucket overflow not clamped")
	}
}

// TestBucketLowInverse: bucket b starts at distance 2^(b-1) (bucket 0 holds
// distance 0 alone), and Bucket maps each bucket's lowest distance back to it.
func TestBucketLowInverse(t *testing.T) {
	for b := 0; b < 20; b++ {
		low := 0
		if b > 0 {
			low = 1 << (b - 1)
		}
		if got := Bucket(low); got != b {
			t.Errorf("Bucket(%d) = %d, want %d", low, got, b)
		}
	}
}

func TestHistogramNormalized(t *testing.T) {
	var h Histogram
	h.Add(1)
	h.Add(5)
	h.AddCold()
	h.AddCold()
	n := h.Normalized()
	if math.Abs(n.Total()-1) > 1e-12 {
		t.Errorf("normalized total = %v", n.Total())
	}
	if math.Abs(n.Cold-0.5) > 1e-12 {
		t.Errorf("normalized cold = %v", n.Cold)
	}
	// Empty histogram is a fixed point.
	var empty Histogram
	if e := empty.Normalized(); e.Total() != 0 {
		t.Error("empty normalization produced mass")
	}
}

func TestHistogramWeighted(t *testing.T) {
	var h Histogram
	h.Buckets[0] = 1
	h.Buckets[4] = 1
	w := h.Weighted(2)
	if math.Abs(w.Buckets[0]-1) > 1e-12 {
		t.Errorf("bucket 0 weight = %v, want 1", w.Buckets[0])
	}
	if math.Abs(w.Buckets[4]-4) > 1e-12 { // 2^(4/2) = 4
		t.Errorf("bucket 4 weight = %v, want 4", w.Buckets[4])
	}
	// v <= 0 means unweighted.
	u := h.Weighted(0)
	if u.Buckets[4] != 1 {
		t.Errorf("unweighted changed buckets: %v", u.Buckets[4])
	}
}

func TestCollect(t *testing.T) {
	// Two accesses to the same line (distance 0 between them, one other
	// line in between -> distance 1).
	s := &trace.SliceStream{Blocks: []trace.BlockExec{
		{Instrs: 1, Accs: []trace.Access{{Addr: 0}, {Addr: 64}, {Addr: 0}}},
	}}
	h := Collect(s)
	if h.Cold != 2 {
		t.Errorf("cold = %v, want 2", h.Cold)
	}
	if h.Buckets[Bucket(1)] != 1 {
		t.Errorf("distance-1 count = %v", h.Buckets[Bucket(1)])
	}
}

// TestAccessSteadyStateAllocs is the allocation-regression cap for the
// profiling inner loop: once the page index and the bitmap have grown to
// the working set, Access never allocates.
func TestAccessSteadyStateAllocs(t *testing.T) {
	p := NewProfiler(16)
	for i := 0; i < 4096; i++ { // grow to the working set
		p.Access(uint64(i % 512))
	}
	var i uint64
	allocs := testing.AllocsPerRun(5000, func() {
		p.Access(i % 512)
		i++
	})
	if allocs >= 1 {
		t.Errorf("steady-state Access allocates %.2f times per call, want 0", allocs)
	}
}

// TestHistogramStringLong exercises the builder-based rendering on a full
// histogram (the seed's string concatenation was quadratic here).
func TestHistogramStringLong(t *testing.T) {
	var h Histogram
	for n := range h.Buckets {
		h.Buckets[n] = float64(n + 1)
	}
	h.Cold = 3
	s := h.String()
	if len(s) == 0 || s[0:4] != "ldv{" || s[len(s)-1] != '}' {
		t.Errorf("malformed String: %q", s)
	}
	if want := "2^47:48 cold:3}"; s[len(s)-len(want):] != want {
		t.Errorf("String tail = %q, want %q", s, want)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Add(0)
	h.AddCold()
	if got := h.String(); got != "ldv{2^0:1 cold:1}" {
		t.Errorf("String = %q", got)
	}
}
