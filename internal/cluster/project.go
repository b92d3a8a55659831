// Package cluster implements the SimPoint-style region clustering of the
// BarrierPoint methodology: random linear projection of signature vectors
// to a small dimension, weighted k-means with k-means++ seeding, BIC model
// selection over k, and representative ("barrierpoint") plus multiplier
// extraction (paper §III-B, Table II).
//
// # Row classes
//
// A barrier-synchronized program repeats its phases, so most regions project
// onto a few distinct rows (npb-lu at scale 0.2: 503 regions, 43 rows).
// Select groups the projected rows by exact bit equality, once, from the rows
// themselves — no caller has to say which regions repeat — and kMeans and
// dataVariance (once per selection, for bic's floor) measure every squared
// distance (k-means++ seeding, nearest centroid, empty-cluster reseed, WCSS,
// data variance) once per class: a distance is a pure function of the row.
// No weighted sum is taken per class. The k-means++ total and pick, centroid
// sums, cluster weights, WCSS and the mean still add one term per region, in
// ascending region order, with the per-region operands: floating-point
// addition is not associative, and folding a class into one (distance x
// summed weight) term would move centroids, WCSS and BIC in their last bits —
// enough to flip an assignment or the chosen k, and with it every stored
// selection. The per-region reference they must match bit for bit is in
// cluster_test.go.
//
// # Concurrent fits
//
// Select fits each k as one task on the par pool. A fit is a pure function
// of (row classes, weights, k, seed) that only reads the shared classes and
// weights; a task keeps its best of Tries fits (strict < on WCSS, in try
// order) in k's own result and BIC slots, and the chosen-k scan reads them in
// ascending k. Nothing is summed across tasks, so a selection is
// byte-identical at any GOMAXPROCS (TestSelectSameAtAnyWidth).
//
// Result.Clusters is the one per-cluster view of a selection, and weigh the one
// pass that turns it into multipliers and weights; Select and Rebind end in it
// and the adaptive sampler models the view. A producer of more clusters (strata
// of a cluster, say) adds points and assignments before weigh, and no consumer
// changes.
package cluster

import (
	"barrierpoint/internal/signature"
	"barrierpoint/internal/sparse"
)

// splitmix64 is the hash behind the implicit random projection matrix.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// projEntry returns the projection matrix entry for (feature, dim) in
// [-0.5, 0.5), derived deterministically so the matrix never needs to be
// materialized over the (huge, sparse) feature space.
func projEntry(feature uint64, dim int, seed uint64) float64 {
	h := splitmix64(feature ^ splitmix64(uint64(dim)+seed))
	return float64(int64(h)) / (1 << 63) * 0.5
}

// projector evaluates the implicit projection matrix with two
// memoizations: the per-dimension seed hash splitmix64(dim+seed) is
// computed once, and each distinct feature's full projection row is
// computed once and cached. Regions of one program share almost all of
// their features (the same static blocks and LDV buckets recur), so
// projecting n regions costs one row computation per distinct feature
// instead of one hash per feature per region per dimension.
type projector struct {
	seed    uint64
	dimSeed []uint64            // splitmix64(d + seed), per dimension
	rows    sparse.Table[int32] // feature -> row offset in arena
	arena   []float64           // cached rows, dim entries each
}

func newProjector(dim int, seed uint64) *projector {
	pj := &projector{seed: seed, dimSeed: make([]uint64, dim)}
	for d := range pj.dimSeed {
		pj.dimSeed[d] = splitmix64(uint64(d) + seed)
	}
	return pj
}

// row returns the projection row of one feature, computing and caching it
// on first use. Row values are bit-identical to projEntry's.
func (pj *projector) row(feature uint64) []float64 {
	dim := len(pj.dimSeed)
	off, existed := pj.rows.Upsert(feature)
	if !existed {
		*off = int32(len(pj.arena))
		for _, ds := range pj.dimSeed {
			h := splitmix64(feature ^ ds)
			pj.arena = append(pj.arena, float64(int64(h))/(1<<63)*0.5)
		}
	}
	return pj.arena[*off : int(*off)+dim]
}

// project maps sv into out (len(out) dimensions) in one fused pass over
// the sorted entries, accumulating w * row[d] per feature.
func (pj *projector) project(sv signature.SV, out []float64) {
	for d := range out {
		out[d] = 0
	}
	for _, e := range sv {
		row := pj.row(e.Key)
		w := e.Val
		for d, r := range row {
			out[d] += w * r
		}
	}
}

// ProjectAll maps sparse signature vectors into dim dense dimensions via a
// fixed random ±uniform projection (Table II: dim = 15), through one shared
// projector, so each distinct feature's row is derived exactly once.
func ProjectAll(svs []signature.SV, dim int, seed uint64) [][]float64 {
	pj := newProjector(dim, seed)
	backing := make([]float64, dim*len(svs))
	out := make([][]float64, len(svs))
	for i, sv := range svs {
		out[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
		pj.project(sv, out[i])
	}
	return out
}
