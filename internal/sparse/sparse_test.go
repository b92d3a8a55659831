package sparse

import (
	"maps"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// TestTableAgainstMap stresses the robin-hood table with a skewed key
// distribution (repeats, sequential runs, random jumps) against a map
// reference, through growth.
func TestTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := NewTable[int](4)
	ref := make(map[uint64]int)
	var keys []uint64
	for i := 0; i < 50000; i++ {
		var k uint64
		switch rng.Intn(3) {
		case 0: // revisit
			if len(keys) > 0 {
				k = keys[rng.Intn(len(keys))]
			}
		case 1: // sequential neighbourhood
			k = uint64(i % 2048)
		default: // random
			k = rng.Uint64()
		}
		keys = append(keys, k)
		prev, existed := tab.Swap(k, i)
		refPrev, refExisted := ref[k]
		if existed != refExisted || (existed && prev != refPrev) {
			t.Fatalf("op %d key %d: Swap = (%d,%v), want (%d,%v)", i, k, prev, existed, refPrev, refExisted)
		}
		ref[k] = i
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(ref))
	}
	// Range visits every entry exactly once, with the value last stored.
	seen := make(map[uint64]int)
	visits := 0
	tab.Range(func(k uint64, v int) { seen[k] = v; visits++ })
	if visits != len(ref) || !maps.Equal(seen, ref) {
		t.Fatalf("Range visited %d entries (%d distinct), want the %d of the reference map", visits, len(seen), len(ref))
	}
	// Reset empties but preserves capacity for reuse.
	tab.Reset()
	if tab.Len() != 0 {
		t.Error("Len after Reset != 0")
	}
	if _, existed := tab.Swap(keys[0], 1); existed {
		t.Error("found an entry after Reset")
	}
	tab.Swap(7, 7)
	if v, existed := tab.Swap(7, 8); !existed || v != 7 {
		t.Error("table unusable after Reset")
	}
}

// TestTableZeroKey: key 0 is a legal key (line address 0 exists).
func TestTableZeroKey(t *testing.T) {
	tab := NewTable[int](4)
	if _, existed := tab.Swap(0, 9); existed {
		t.Error("zero key reported present in empty table")
	}
	if v, existed := tab.Swap(0, 10); !existed || v != 9 {
		t.Errorf("second Swap(0) = (%d,%v)", v, existed)
	}
}

func TestTableZeroValue(t *testing.T) {
	var tab Table[int] // zero value must be usable via Upsert
	p, existed := tab.Upsert(3)
	if existed || *p != 0 {
		t.Fatalf("Upsert on zero table = (%d,%v)", *p, existed)
	}
	*p = 11
	if p, existed := tab.Upsert(3); !existed || *p != 11 {
		t.Error("value lost")
	}
}

func TestAccumulator(t *testing.T) {
	acc := NewAccumulator(4)
	rng := rand.New(rand.NewSource(1))
	ref := make(map[uint64]float64)
	for i := 0; i < 10000; i++ {
		k := uint64(rng.Intn(300))
		v := rng.Float64()
		acc.Add(k, v)
		ref[k] += v
	}
	got := acc.AppendSorted(nil)
	if len(got) != len(ref) {
		t.Fatalf("%d entries, want %d", len(got), len(ref))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Key < got[j].Key }) {
		t.Fatal("AppendSorted output not sorted")
	}
	for _, e := range got {
		if math.Abs(e.Val-ref[e.Key]) > 1e-9 {
			t.Fatalf("key %d: %v, want %v", e.Key, e.Val, ref[e.Key])
		}
	}
	// Append semantics: existing prefix is preserved.
	pre := Vector{{Key: ^uint64(0), Val: -1}}
	both := acc.AppendSorted(pre)
	if len(both) != 1+len(ref) || both[0].Key != ^uint64(0) {
		t.Error("AppendSorted clobbered the destination prefix")
	}
	acc.Reset()
	if acc.Len() != 0 || len(acc.AppendSorted(nil)) != 0 {
		t.Error("Reset did not empty the accumulator")
	}
}

func TestVectorOps(t *testing.T) {
	v := SortMerge(Vector{{9, 1}, {2, 2}, {5, 0.5}})
	if v.Get(9) != 1 || v.Get(2) != 2 || v.Get(5) != 0.5 || v.Get(4) != 0 {
		t.Errorf("Get wrong: %v", v)
	}
	if v.Total() != 3.5 {
		t.Errorf("Total = %v", v.Total())
	}
}

// mapDistance is the seed's map-based L1 distance, the reference for the
// merge join.
func mapDistance(a, b map[uint64]float64) float64 {
	var d float64
	for k, av := range a {
		bv := b[k]
		if av > bv {
			d += av - bv
		} else {
			d += bv - av
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			d += bv
		}
	}
	return d
}

func TestDistanceAgainstMap(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		ma := make(map[uint64]float64)
		mb := make(map[uint64]float64)
		var va, vb Vector
		for i, x := range xs {
			ma[uint64(i%19)] += float64(x) / 255
			va = append(va, Entry{uint64(i % 19), float64(x) / 255})
		}
		for i, y := range ys {
			mb[uint64(i%23)] += float64(y) / 255
			vb = append(vb, Entry{uint64(i % 23), float64(y) / 255})
		}
		got := Distance(SortMerge(va), SortMerge(vb))
		want := mapDistance(ma, mb)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortMerge(t *testing.T) {
	v := Vector{{3, 1}, {1, 2}, {3, 4}, {2, 1}, {1, 1}}
	got := SortMerge(v)
	want := Vector{{1, 3}, {2, 1}, {3, 5}}
	if len(got) != len(want) {
		t.Fatalf("SortMerge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortMerge[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if out := SortMerge(nil); len(out) != 0 {
		t.Errorf("SortMerge(nil) = %v, want empty", out)
	}
}

// unhash inverts hash (the murmur3 fmix64 finalizer), letting tests craft
// keys with chosen hash values.
func unhash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0x9cb4b2f8129337db
	x ^= x >> 33
	x *= 0x4f74430c22a54005
	x ^= x >> 33
	return x
}

// TestTableAdversarialCollisions drives Table through the maxProbe
// overflow recovery with keys crafted to collide: two large groups whose
// hashes share their low 17 bits land on two adjacent home slots at every
// table size up to 2^17, building probe chains past maxProbe and forcing
// the mid-insertion grow path. Values must still match a reference map.
func TestTableAdversarialCollisions(t *testing.T) {
	const perGroup = 160 // two groups > maxProbe combined
	var keys []uint64
	// Fill the home-slot-2 group first so the slot-1 group then probes and
	// displaces through it (the recovery path needs a displacement before
	// the overflow).
	for _, g := range []uint64{2, 1} {
		for i := uint64(0); i < perGroup; i++ {
			h := (i+1)<<17 | g
			k := unhash(h)
			if hash(k) != h {
				t.Fatalf("unhash mismatch: hash(%#x) = %#x, want %#x", k, hash(k), h)
			}
			keys = append(keys, k)
		}
	}
	tbl := NewTable[int](0)
	ref := make(map[uint64]int, len(keys))
	for pass := 0; pass < 3; pass++ {
		for j, k := range keys {
			p, _ := tbl.Upsert(k)
			*p += j + 1
			ref[k] += j + 1
		}
	}
	if tbl.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tbl.Len(), len(ref))
	}
	got := make(map[uint64]int, len(ref))
	tbl.Range(func(k uint64, v int) { got[k] = v })
	if !maps.Equal(got, ref) {
		t.Error("table contents differ from the reference map")
	}
}

func TestDistanceZeroAllocs(t *testing.T) {
	a := SortMerge(Vector{{1, 1}, {5, 2}, {9, 3}})
	b := SortMerge(Vector{{2, 1}, {5, 1}, {11, 4}})
	var sink float64
	if allocs := testing.AllocsPerRun(1000, func() { sink += Distance(a, b) }); allocs != 0 {
		t.Errorf("Distance allocates %.2f times per call", allocs)
	}
	_ = sink
}
