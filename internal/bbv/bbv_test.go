package bbv

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"barrierpoint/internal/sparse"
	"barrierpoint/internal/trace"
)

func TestAddTotal(t *testing.T) {
	v := New()
	v.Add(1, 10)
	v.Add(2, 5)
	v.Add(1, 10)
	if v.Total() != 25 {
		t.Errorf("Total = %v, want 25", v.Total())
	}
	if v.Get(1) != 20 || v.Get(2) != 5 {
		t.Errorf("entries wrong: %v", v)
	}
}

// TestAddMatchesMap drives Add with random out-of-order keys and checks the
// sorted flat vector against a map reference.
func TestAddMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := New()
	ref := make(map[int]float64)
	var raw sparse.Vector
	for i := 0; i < 2000; i++ {
		id, n := rng.Intn(100), rng.Intn(50)
		v.Add(id, n)
		ref[id] += float64(n)
		raw = append(raw, sparse.Entry{Key: uint64(id), Val: float64(n)})
	}
	if len(v) != len(ref) {
		t.Fatalf("distinct blocks = %d, want %d", len(v), len(ref))
	}
	for i := 1; i < len(v); i++ {
		if v[i-1].Key >= v[i].Key {
			t.Fatalf("entries not strictly sorted at %d: %v >= %v", i, v[i-1].Key, v[i].Key)
		}
	}
	for id, c := range ref {
		if v.Get(id) != c {
			t.Errorf("Get(%d) = %v, want %v", id, v.Get(id), c)
		}
	}
	if ManhattanDistance(v, Vector(sparse.SortMerge(raw))) != 0 {
		t.Error("SortMerge of the same executions differs from incremental Add")
	}
}

func TestKeys(t *testing.T) {
	v := Vector(sparse.SortMerge(sparse.Vector{{Key: 5, Val: 1}, {Key: 1, Val: 1}, {Key: 3, Val: 1}}))
	if len(v) != 3 || v[0].Key != 1 || v[1].Key != 3 || v[2].Key != 5 {
		t.Errorf("block IDs not ascending: %v", v)
	}
}

func TestManhattanDistance(t *testing.T) {
	a := Vector(sparse.SortMerge(sparse.Vector{{Key: 1, Val: 0.5}, {Key: 2, Val: 0.5}}))
	b := Vector(sparse.SortMerge(sparse.Vector{{Key: 1, Val: 0.5}, {Key: 3, Val: 0.5}}))
	if d := ManhattanDistance(a, b); math.Abs(d-1.0) > 1e-12 {
		t.Errorf("distance = %v, want 1.0", d)
	}
	if d := ManhattanDistance(a, a); d != 0 {
		t.Errorf("self distance = %v", d)
	}
}

// mapManhattan is the seed map-based distance, kept as the reference for
// the merge-join implementation.
func mapManhattan(a, b map[int]float64) float64 {
	var d float64
	for id, av := range a {
		bv := b[id]
		if av > bv {
			d += av - bv
		} else {
			d += bv - av
		}
	}
	for id, bv := range b {
		if _, ok := a[id]; !ok {
			d += bv
		}
	}
	return d
}

func TestManhattanDistanceProperties(t *testing.T) {
	mk := func(xs []uint8) (Vector, map[int]float64) {
		v := New()
		for i, x := range xs {
			if x > 0 {
				v.Add(i, int(x))
			}
		}
		total := v.Total()
		m := make(map[int]float64, len(v))
		for i, e := range v {
			v[i].Val = e.Val / total
			m[int(e.Key)] = v[i].Val
		}
		return v, m
	}
	// Symmetry, bounds, and agreement with the map reference.
	f := func(xs, ys []uint8) bool {
		a, ma := mk(xs)
		b, mb := mk(ys)
		d1, d2 := ManhattanDistance(a, b), ManhattanDistance(b, a)
		ref := mapManhattan(ma, mb)
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 2+1e-12 &&
			math.Abs(d1-ref) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCollect(t *testing.T) {
	s := &trace.SliceStream{Blocks: []trace.BlockExec{
		{Block: 7, Instrs: 4},
		{Block: 7, Instrs: 4},
		{Block: 9, Instrs: 2},
	}}
	v, instrs := Collect(s)
	if instrs != 10 || v.Get(7) != 8 || v.Get(9) != 2 {
		t.Errorf("Collect = %v, %d", v, instrs)
	}
}

// TestCollectMatchesAdd checks the accumulator extraction path against the
// incremental insert path over a permuted block sequence.
func TestCollectMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var blocks []trace.BlockExec
	want := New()
	for i := 0; i < 500; i++ {
		id, n := rng.Intn(40), 1+rng.Intn(9)
		blocks = append(blocks, trace.BlockExec{Block: id, Instrs: n})
		want.Add(id, n)
	}
	got, _ := Collect(&trace.SliceStream{Blocks: blocks})
	if len(got) != len(want) || ManhattanDistance(got, want) != 0 {
		t.Errorf("Collect differs from Add path")
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key < got[j].Key }) {
		t.Error("Collect output not sorted")
	}
}

func TestString(t *testing.T) {
	v := Vector(sparse.SortMerge(sparse.Vector{{Key: 2, Val: 3}, {Key: 1, Val: 1}}))
	if got := v.String(); got != "bbv{1:1 2:3}" {
		t.Errorf("String = %q", got)
	}
}
