// Package bbv implements Basic Block Vectors (Sherwood et al., ASPLOS 2002):
// per-region fingerprints counting, for every static basic block, how many
// instructions that block contributed to the region's dynamic execution.
package bbv

import (
	"fmt"
	"strings"

	"barrierpoint/internal/sparse"
	"barrierpoint/internal/trace"
)

// Vector is a sparse basic block vector: static block ID → dynamic
// instruction count attributed to that block, stored as entries sorted by
// ascending block ID. The flat representation keeps signature construction
// and distance computation allocation-free.
type Vector []sparse.Entry

// New returns an empty vector.
func New() Vector { return nil }

// Add records one execution of block id contributing instrs instructions.
// It is an insert-or-update on the sorted entries: constant-time for the
// common loop pattern (re-executing the most recent block), logarithmic
// lookup otherwise. Collect and the profiler accumulate through
// sparse.Accumulator instead, which is O(1) per block regardless of
// insertion order.
func (v *Vector) Add(id, instrs int) {
	k := uint64(id)
	s := *v
	if n := len(s); n > 0 && s[n-1].Key == k {
		s[n-1].Val += float64(instrs)
		return
	}
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo].Key == k {
		s[lo].Val += float64(instrs)
		return
	}
	s = append(s, sparse.Entry{})
	copy(s[lo+1:], s[lo:])
	s[lo] = sparse.Entry{Key: k, Val: float64(instrs)}
	*v = s
}

// Get returns the instruction count attributed to block id.
func (v Vector) Get(id int) float64 { return sparse.Vector(v).Get(uint64(id)) }

// Len returns the number of distinct blocks.
func (v Vector) Len() int { return len(v) }

// Total returns the sum of all entries (the region's instruction count).
func (v Vector) Total() float64 { return sparse.Vector(v).Total() }

// ManhattanDistance returns the L1 distance between two vectors, treating
// missing entries as zero. For normalized vectors this lies in [0, 2].
// Both vectors are sorted, so this is a zero-allocation merge join.
func ManhattanDistance(a, b Vector) float64 {
	return sparse.Distance(sparse.Vector(a), sparse.Vector(b))
}

// Collect drains a stream and returns its basic block vector together with
// the total instruction count observed.
func Collect(s trace.Stream) (Vector, uint64) {
	acc := sparse.NewAccumulator(64)
	var be trace.BlockExec
	var instrs uint64
	for s.Next(&be) {
		acc.Add(uint64(be.Block), float64(be.Instrs))
		instrs += uint64(be.Instrs)
	}
	return FromAccumulator(acc), instrs
}

// FromAccumulator extracts the accumulated counts as a sorted Vector. The
// accumulator may be Reset and reused afterwards; this is the profiler's
// per-region extraction step.
func FromAccumulator(acc *sparse.Accumulator) Vector {
	return Vector(acc.AppendSorted(make(sparse.Vector, 0, acc.Len())))
}

// String renders the vector compactly for debugging.
func (v Vector) String() string {
	var b strings.Builder
	b.WriteString("bbv{")
	for i, e := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.0f", e.Key, e.Val)
	}
	b.WriteByte('}')
	return b.String()
}
