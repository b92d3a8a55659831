// Package sparse provides the flat sparse-vector representation behind the
// signature pipeline hot paths: sorted []Entry vectors with merge-join
// distance, plus an open-addressing robin-hood hash table used both to
// accumulate vectors without map churn and to index per-line state by
// 16-line page (Lines: the LDV profiler's last access times, the warm-up
// tracker's recency nodes).
//
// The package exists because profiling and clustering dominate the
// BarrierPoint one-time cost (paper §III, the 20-30x Pintool slowdown), and
// the seed implementation spent most of that time in Go map operations.
// Sorted flat vectors make Distance a branch-predictable merge join with
// zero allocations, and the accumulator's storage is reusable across
// regions via Reset, so steady-state profiling does not allocate per
// region.
package sparse

import "slices"

// Entry is one (feature, weight) pair of a sparse vector.
type Entry struct {
	Key uint64
	Val float64
}

// Vector is a sparse vector: entries sorted by strictly increasing Key.
// The zero value is an empty vector.
type Vector []Entry

func cmpEntry(a, b Entry) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	default:
		return 0
	}
}

// SortMerge restores the Vector invariant of an entry list assembled out
// of order: it sorts v by key and sums entries sharing a key, in place,
// returning the (possibly shorter) slice. Values of merged entries add,
// matching the semantics of accumulating the same list through a map.
func SortMerge(v Vector) Vector {
	slices.SortFunc(v, cmpEntry)
	out := v[:0]
	for _, e := range v {
		if n := len(out); n > 0 && out[n-1].Key == e.Key {
			out[n-1].Val += e.Val
			continue
		}
		out = append(out, e)
	}
	return out
}

// Get returns the value stored under k, or 0 when absent.
func (v Vector) Get(k uint64) float64 {
	lo, hi := 0, len(v)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(v) && v[lo].Key == k {
		return v[lo].Val
	}
	return 0
}

// Total returns the sum of all values.
func (v Vector) Total() float64 {
	var s float64
	for _, e := range v {
		s += e.Val
	}
	return s
}

// Distance returns the L1 (Manhattan) distance between two sorted sparse
// vectors, treating missing entries as zero. It is a single merge join and
// never allocates.
func Distance(a, b Vector) float64 {
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Key == b[j].Key:
			if a[i].Val > b[j].Val {
				d += a[i].Val - b[j].Val
			} else {
				d += b[j].Val - a[i].Val
			}
			i++
			j++
		case a[i].Key < b[j].Key:
			if a[i].Val >= 0 {
				d += a[i].Val
			} else {
				d += -a[i].Val
			}
			i++
		default:
			if b[j].Val >= 0 {
				d += b[j].Val
			} else {
				d += -b[j].Val
			}
			j++
		}
	}
	for ; i < len(a); i++ {
		if a[i].Val >= 0 {
			d += a[i].Val
		} else {
			d += -a[i].Val
		}
	}
	for ; j < len(b); j++ {
		if b[j].Val >= 0 {
			d += b[j].Val
		} else {
			d += -b[j].Val
		}
	}
	return d
}
