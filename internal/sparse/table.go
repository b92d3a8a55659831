package sparse

import "slices"

// hash is the 64-bit finalizer used to spread keys over the table. Cache
// line addresses and feature keys are both strongly structured (sequential
// sweeps, strided accesses), so a full-avalanche mix is required to keep
// probe chains short.
func hash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Table is an open-addressing robin-hood hash table keyed by uint64. It
// exists for the profiling hot loops, where the runtime map's overhead
// (hash interface, bucket pointers, write barriers) dominates: storage is
// two flat arrays plus one metadata byte per slot, lookups are a linear
// probe bounded by robin-hood displacement, and Reset reuses all storage.
//
// Entries cannot be deleted; the profiler only ever upserts. The zero
// value is ready to use.
type Table[V any] struct {
	keys []uint64
	vals []V
	// dist holds, per slot, the probe distance + 1 of the resident entry
	// (0 = empty). Robin-hood insertion keeps the maximum distance small
	// (O(log n) with high probability), so a uint8 suffices; an overflow
	// forces an early grow.
	dist []uint8
	n    int
	mask uint64
}

// maxProbe forces a rehash if an insertion would probe this far; with the
// growth threshold below it is effectively unreachable, but it bounds the
// uint8 distance encoding against adversarial key sets.
const maxProbe = 200

// NewTable returns a table pre-sized for roughly hint entries.
func NewTable[V any](hint int) *Table[V] {
	t := &Table[V]{}
	size := 16
	for size*3 < hint*4 { // initial load factor <= 0.75
		size *= 2
	}
	t.init(size)
	return t
}

func (t *Table[V]) init(size int) {
	t.keys = make([]uint64, size)
	t.vals = make([]V, size)
	t.dist = make([]uint8, size)
	t.mask = uint64(size - 1)
	t.n = 0
}

// Len returns the number of stored entries.
func (t *Table[V]) Len() int { return t.n }

// Reset removes all entries, keeping allocated storage for reuse.
func (t *Table[V]) Reset() {
	clear(t.dist)
	t.n = 0
}

// grow doubles the table and reinserts every entry.
func (t *Table[V]) grow() {
	oldKeys, oldVals, oldDist := t.keys, t.vals, t.dist
	size := 2 * len(oldKeys)
	if size == 0 {
		size = 16
	}
	t.init(size)
	for i, d := range oldDist {
		if d != 0 {
			*t.upsert(oldKeys[i]) = oldVals[i]
		}
	}
}

// Upsert returns a pointer to the value stored under k, inserting a zero
// value first if k is absent. existed reports whether k was already
// present. The pointer is valid until the next Upsert, Swap or Reset.
func (t *Table[V]) Upsert(k uint64) (p *V, existed bool) {
	if t.dist == nil {
		t.init(16)
	}
	// Lookup first: the common case in profiling loops is a revisit.
	i := hash(k) & t.mask
	d := uint8(1)
	for {
		di := t.dist[i]
		if di == 0 || di < d {
			break // would have been placed by now
		}
		if t.keys[i] == k {
			return &t.vals[i], true
		}
		i = (i + 1) & t.mask
		d++
	}
	return t.insert(k), false
}

// upsert is Upsert without the existence report, for rehashing.
func (t *Table[V]) upsert(k uint64) *V {
	p, _ := t.Upsert(k)
	return p
}

// insert places a fresh key (known absent) and returns its value slot.
func (t *Table[V]) insert(k uint64) *V {
	if (t.n+1)*4 >= len(t.keys)*3 { // grow at 75% load
		t.grow()
	}
retry:
	i := hash(k) & t.mask
	d := uint8(1)
	var ret *V
	curKey := k
	var curVal V
	for {
		if d >= maxProbe {
			t.grow()
			if ret == nil {
				goto retry
			}
			// k itself was already placed before the overflow. Finish
			// inserting the displaced entry first — its insertion can
			// robin-hood k's slot around — and only then re-find k, so the
			// returned pointer addresses k's final slot.
			*t.upsert(curKey) = curVal
			return t.upsert(k)
		}
		if t.dist[i] == 0 {
			t.keys[i], t.vals[i], t.dist[i] = curKey, curVal, d
			t.n++
			if ret == nil {
				ret = &t.vals[i]
			}
			return ret
		}
		if t.dist[i] < d {
			// Robin hood: the resident is closer to home; it yields its
			// slot and we continue inserting the displaced entry.
			t.keys[i], curKey = curKey, t.keys[i]
			t.vals[i], curVal = curVal, t.vals[i]
			t.dist[i], d = d, t.dist[i]
			if ret == nil {
				ret = &t.vals[i]
			}
		}
		i = (i + 1) & t.mask
		d++
	}
}

// Swap stores v under k and returns the previous value, if any. It is the
// single-operation form of the LDV profiler's "read last access time, write
// new one" step.
func (t *Table[V]) Swap(k uint64, v V) (prev V, existed bool) {
	p, existed := t.Upsert(k)
	prev = *p
	*p = v
	return prev, existed
}

// Range calls fn for every entry, in unspecified order.
func (t *Table[V]) Range(fn func(k uint64, v V)) {
	for i, d := range t.dist {
		if d != 0 {
			fn(t.keys[i], t.vals[i])
		}
	}
}

// Accumulator builds sparse vectors by summing float64 weights per key,
// without per-key allocations. It is the scratch structure behind BBV
// collection and thread-summed signatures; pool it and Reset between
// regions.
type Accumulator struct {
	t Table[float64]
}

// NewAccumulator returns an accumulator pre-sized for roughly hint keys.
func NewAccumulator(hint int) *Accumulator {
	return &Accumulator{t: *NewTable[float64](hint)}
}

// Add accumulates v under k.
func (a *Accumulator) Add(k uint64, v float64) { *a.t.upsert(k) += v }

// Len returns the number of distinct keys.
func (a *Accumulator) Len() int { return a.t.Len() }

// Reset removes all entries, keeping storage.
func (a *Accumulator) Reset() { a.t.Reset() }

// AppendSorted appends the accumulated entries to dst in ascending key
// order and returns the extended slice. The accumulator is unchanged.
func (a *Accumulator) AppendSorted(dst Vector) Vector {
	start := len(dst)
	if need := start + a.t.Len(); cap(dst) < need {
		grown := make(Vector, start, need)
		copy(grown, dst)
		dst = grown
	}
	a.t.Range(func(k uint64, v float64) {
		dst = append(dst, Entry{k, v})
	})
	// slices.SortFunc, not sort.Slice: the latter builds a reflect-based
	// swapper per call, which profiled as ~20% of allocated objects in the
	// whole analysis pass.
	slices.SortFunc(dst[start:], cmpEntry)
	return dst
}
