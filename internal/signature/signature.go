// Package signature builds the Signature Vectors (SVs) of the BarrierPoint
// methodology (paper §III-A): per inter-barrier region, per-thread BBVs
// and/or LRU stack distance vectors are individually normalized, optionally
// weighted, and concatenated — across threads and across metric kinds —
// into a single sparse vector characterizing the region's behaviour.
package signature

import (
	"fmt"

	"barrierpoint/internal/bbv"
	"barrierpoint/internal/ldv"
	"barrierpoint/internal/sparse"
)

// Kind selects which program characteristics enter the signature.
type Kind int

// Signature kinds, matching the paper's Figure 5 series.
const (
	// BBVOnly uses code signatures only ("bbv").
	BBVOnly Kind = iota
	// LDVOnly uses LRU stack distance vectors only ("reuse_dist").
	LDVOnly
	// Combined concatenates both ("combine") — the paper's default.
	Combined
)

// String returns the paper's series label for the kind.
func (k Kind) String() string {
	switch k {
	case BBVOnly:
		return "bbv"
	case LDVOnly:
		return "reuse_dist"
	case Combined:
		return "combine"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Options configures signature construction.
type Options struct {
	Kind Kind
	// LDVWeightV is the v in the paper's 2^(n/v) stack distance bucket
	// weighting. 0 disables weighting (the paper's default).
	LDVWeightV float64
	// SumThreads aggregates per-thread vectors by summation instead of
	// concatenation — the rejected alternative of §III-A4, kept as an
	// ablation.
	SumThreads bool
}

// Label renders the options as the paper's Figure 5 series name, e.g.
// "combine-1_2" for Combined with v=2.
func (o Options) Label() string {
	l := o.Kind.String()
	if o.LDVWeightV > 0 {
		l += fmt.Sprintf("-1_%d", int(o.LDVWeightV))
	}
	if o.SumThreads {
		l += "-sum"
	}
	return l
}

// Default returns the paper's default configuration: combined signatures,
// unweighted LDVs, per-thread concatenation.
func Default() Options { return Options{Kind: Combined} }

// SV is a sparse signature vector: entries sorted by ascending feature key.
// Keys are feature identifiers unique across threads and metric kinds;
// values are normalized weights. The flat sorted form makes Distance a
// zero-allocation merge join and lets projection memoize per-feature rows
// (see internal/cluster).
type SV = sparse.Vector

// Feature key layout: | kind (1 bit) | thread (15 bits) | feature (48 bits) |
const (
	featBits   = 48
	threadBits = 15
	kindShift  = featBits + threadBits
)

func key(kind, thread int, feature uint64) uint64 {
	return uint64(kind)<<kindShift | uint64(thread)<<featBits | feature&((1<<featBits)-1)
}

// RegionData is the per-thread profile of one region, as produced by the
// profiler.
type RegionData struct {
	BBV          []bbv.Vector    // per thread
	LDV          []ldv.Histogram // per thread
	ThreadInstrs []uint64
	TotalInstrs  uint64
}

// Build constructs the signature vector of one region. Each (thread, kind)
// sub-vector is L1-normalized before concatenation; the final vector is
// L1-normalized overall, so regions of different lengths compare by
// intrinsic behaviour only (paper §III-B).
//
// In the default concatenation mode the feature keys of successive
// (kind, thread) sub-vectors are strictly increasing — kind is the top key
// bit and BBV entries are already sorted per thread — so the SV is emitted
// sorted in one pass with a single exact-size allocation. SumThreads folds
// every thread into slot 0 and therefore accumulates through scratch
// storage before sorting.
func Build(rd *RegionData, o Options) SV {
	if o.SumThreads {
		return buildSummed(rd, o)
	}
	threads := len(rd.BBV)
	useBBV := o.Kind == BBVOnly || o.Kind == Combined
	useLDV := o.Kind == LDVOnly || o.Kind == Combined

	n := 0
	if useBBV {
		for t := 0; t < threads; t++ {
			n += rd.BBV[t].Len()
		}
	}
	if useLDV {
		n += threads * (ldv.NumBuckets + 1)
	}
	sv := make(SV, 0, n)

	if useBBV {
		for t := 0; t < threads; t++ {
			v := rd.BBV[t]
			total := v.Total()
			if total == 0 {
				continue
			}
			for _, e := range v {
				sv = append(sv, sparse.Entry{Key: key(0, t, e.Key), Val: e.Val / total})
			}
		}
	}
	if useLDV {
		for t := 0; t < threads; t++ {
			sv = appendLDV(sv, &rd.LDV[t], t, o)
		}
	}
	// BBV block keys wider than featBits are truncated by key(), which can
	// break the emitted order and collide features; restore the sorted
	// invariant (colliding features sum, the map-era semantics). Ordinary
	// traces never take this branch — block IDs are far below 2^48 — so the
	// fast path pays one sortedness scan.
	if !sortedStrict(sv) {
		sv = sparse.SortMerge(sv)
	}
	normalize(sv)
	return sv
}

// sortedStrict reports whether sv's keys are strictly increasing.
func sortedStrict(sv SV) bool {
	for i := 1; i < len(sv); i++ {
		if sv[i-1].Key >= sv[i].Key {
			return false
		}
	}
	return true
}

// appendLDV appends thread slot's weighted, normalized LDV entries in
// bucket order (cold last, matching its key ldv.NumBuckets).
func appendLDV(sv SV, h *ldv.Histogram, slot int, o Options) SV {
	hh := *h
	if o.LDVWeightV > 0 {
		hh = hh.Weighted(o.LDVWeightV)
	}
	hh = hh.Normalized()
	for n, w := range hh.Buckets {
		if w != 0 {
			sv = append(sv, sparse.Entry{Key: key(1, slot, uint64(n)), Val: w})
		}
	}
	if hh.Cold != 0 {
		sv = append(sv, sparse.Entry{Key: key(1, slot, uint64(ldv.NumBuckets)), Val: hh.Cold})
	}
	return sv
}

// buildSummed is the SumThreads ablation path: every thread lands on slot
// 0, so features collide across threads and are accumulated before the
// final sort and normalization.
func buildSummed(rd *RegionData, o Options) SV {
	threads := len(rd.BBV)
	useBBV := o.Kind == BBVOnly || o.Kind == Combined
	useLDV := o.Kind == LDVOnly || o.Kind == Combined

	acc := sparse.NewAccumulator(64)
	for t := 0; t < threads; t++ {
		if useBBV {
			v := rd.BBV[t]
			total := v.Total()
			if total != 0 {
				for _, e := range v {
					acc.Add(key(0, 0, e.Key), e.Val/total)
				}
			}
		}
		if useLDV {
			hh := rd.LDV[t]
			if o.LDVWeightV > 0 {
				hh = hh.Weighted(o.LDVWeightV)
			}
			hh = hh.Normalized()
			for n, w := range hh.Buckets {
				if w != 0 {
					acc.Add(key(1, 0, uint64(n)), w)
				}
			}
			if hh.Cold != 0 {
				acc.Add(key(1, 0, uint64(ldv.NumBuckets)), hh.Cold)
			}
		}
	}
	sv := acc.AppendSorted(make(SV, 0, acc.Len()))
	normalize(sv)
	return sv
}

// normalize applies the overall L1 normalization in place.
func normalize(sv SV) {
	var total float64
	for _, e := range sv {
		total += e.Val
	}
	if total > 0 {
		for i := range sv {
			sv[i].Val /= total
		}
	}
}

// BuildAll constructs signature vectors for every region, plus the region
// weights (aggregate instruction counts) used by weighted clustering.
// Regions that share one *RegionData (equal content, see the service's
// profile cache) share one read-only vector.
func BuildAll(rds []*RegionData, o Options) (svs []SV, weights []float64) {
	svs = make([]SV, len(rds))
	weights = make([]float64, len(rds))
	built := make(map[*RegionData]SV)
	for i, rd := range rds {
		sv, ok := built[rd]
		if !ok {
			sv = Build(rd, o)
			built[rd] = sv
		}
		svs[i] = sv
		weights[i] = float64(rd.TotalInstrs)
	}
	return svs, weights
}

// Distance returns the L1 (Manhattan) distance between two signature
// vectors; for normalized vectors it lies in [0, 2]. Both vectors are
// sorted, so this is a zero-allocation merge join.
func Distance(a, b SV) float64 { return sparse.Distance(a, b) }
