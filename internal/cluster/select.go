package cluster

import (
	"fmt"
	"math"
	"sort"

	"barrierpoint/internal/par"
	"barrierpoint/internal/signature"
)

// Params are the clustering parameters, mirroring the paper's Table II
// SimPoint settings.
type Params struct {
	Dim         int     // -dim: projected dimensions (15)
	MaxK        int     // -maxK: maximum cluster count (20)
	CoveragePct float64 // -coveragePct: fraction of weight to cover (1.0)
	BICThresh   float64 // fraction of the best BIC accepted for a smaller k
	Seed        uint64  // RNG seed for projection and k-means
	KMeansIters int     // Lloyd iteration cap
	Tries       int     // k-means restarts per k (best WCSS wins)
}

// DefaultParams returns the paper's Table II configuration.
func DefaultParams() Params {
	return Params{
		Dim:         15,
		MaxK:        20,
		CoveragePct: 1.0,
		BICThresh:   0.99,
		Seed:        42,
		KMeansIters: 100,
		Tries:       5,
	}
}

// BarrierPoint is one selected representative region.
type BarrierPoint struct {
	Region     int     // region index of the representative
	Cluster    int     // cluster id
	Multiplier float64 // Σ member instrs / representative instrs (§III-D)
	Weight     float64 // fraction of total program instructions represented
	// Spread is the weight-averaged signature distance (L1, in [0, 2])
	// from the cluster's members to the representative: the within-cluster
	// behavioural heterogeneity the adaptive sampler turns into a variance
	// proxy for clusters with a single simulated member. Selections saved
	// before spreads existed load as 0.
	Spread float64 `json:",omitempty"`
}

// Result is a complete barrierpoint selection for one program.
type Result struct {
	K             int
	Assignment    []int          // region -> cluster
	Points        []BarrierPoint // one per cluster, sorted by region index
	RegionWeights []float64      // the instruction-count weights used
	// RepDists holds each region's signature distance (L1) to its cluster
	// representative: the adaptive sampler's runner-up ordering — the
	// unsimulated member closest to the representative is promoted first.
	// Empty for selections saved before distances existed.
	RepDists []float64
}

// PointFor returns the barrierpoint representing region i.
func (r *Result) PointFor(region int) *BarrierPoint {
	c := r.Assignment[region]
	for i := range r.Points {
		if r.Points[i].Cluster == c {
			return &r.Points[i]
		}
	}
	return nil
}

// Significant splits barrierpoints into significant and insignificant sets
// using the paper's 0.1% contribution threshold (Table III).
func (r *Result) Significant() (sig, insig []BarrierPoint) {
	for _, p := range r.Points {
		if p.Weight >= 0.001 {
			sig = append(sig, p)
		} else {
			insig = append(insig, p)
		}
	}
	return sig, insig
}

// Select runs the full clustering pipeline on per-region signature vectors:
// random projection, weighted k-means over k = 1..MaxK, BIC model
// selection, then per-cluster representative and multiplier extraction.
// weights must hold each region's aggregate instruction count.
func Select(svs []signature.SV, weights []float64, p Params) (*Result, error) {
	n := len(svs)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no regions to select from")
	}
	if len(weights) != n {
		return nil, fmt.Errorf("cluster: %d weights for %d regions", len(weights), n)
	}
	if p.Dim < 1 || p.MaxK < 1 {
		return nil, fmt.Errorf("cluster: invalid params dim=%d maxK=%d", p.Dim, p.MaxK)
	}

	points := ProjectAll(svs, p.Dim, p.Seed)
	rc := classify(points)

	maxK, tries := min(p.MaxK, n), max(p.Tries, 1)
	var wTotal float64
	for _, w := range weights {
		wTotal += w
	}
	dataVar := dataVariance(rc, weights, wTotal)

	// One task per k, largest first so the pool drains evenly (see package doc).
	results, bics := make([]KMeansResult, maxK+1), make([]float64, maxK+1)
	par.For(maxK, func(i int) {
		k := maxK - i
		best := kMeans(rc, weights, k, p.Seed+uint64(k)*7919, p.KMeansIters)
		for t := 1; t < tries; t++ {
			cand := kMeans(rc, weights, k, p.Seed+uint64(k)*7919+uint64(t)*104729, p.KMeansIters)
			if cand.WCSS < best.WCSS {
				best = cand
			}
		}
		results[k] = best
		bics[k] = bic(rc, weights, best, wTotal, dataVar)
	})

	// SimPoint-style selection: smallest k whose BIC reaches BICThresh of
	// the way from the worst to the best BIC.
	bestBIC, worstBIC := math.Inf(-1), math.Inf(1)
	for _, b := range bics[1:] {
		bestBIC = math.Max(bestBIC, b)
		worstBIC = math.Min(worstBIC, b)
	}
	thresh := worstBIC + p.BICThresh*(bestBIC-worstBIC)
	chosenK := maxK
	for k := 1; k <= maxK; k++ {
		if bics[k] >= thresh {
			chosenK = k
			break
		}
	}
	km := results[chosenK]

	res := &Result{
		K:             chosenK,
		Assignment:    km.Assignment,
		RegionWeights: weights,
		RepDists:      make([]float64, n),
	}

	// Per cluster: representative = member closest to the centroid, ties
	// broken toward the heavier (longer) region, as weighted SimPoint does.
	for c := 0; c < chosenK; c++ {
		rep, repD := -1, math.Inf(1)
		for i := range points {
			if km.Assignment[i] != c {
				continue
			}
			d := sqDist(points[i], km.Centroids[c])
			if rep == -1 || d < repD-1e-12 ||
				(math.Abs(d-repD) <= 1e-12 && weights[i] > weights[rep]) {
				rep, repD = i, d
			}
		}
		if rep != -1 { // an empty cluster has nothing to represent
			res.Points = append(res.Points, BarrierPoint{Region: rep, Cluster: c})
		}
	}
	sort.Slice(res.Points, func(i, j int) bool {
		return res.Points[i].Region < res.Points[j].Region
	})

	// Within-cluster heterogeneity, measured in the original signature space
	// (not the projection): per-member distance to the representative, and
	// its instruction-weighted mean as the cluster's spread.
	for i, c := range res.Clusters() {
		p := &res.Points[i]
		for _, m := range c.Members {
			if m == p.Region {
				continue
			}
			d := signature.Distance(svs[m], svs[p.Region])
			res.RepDists[m] = d
			if c.Weight > 0 {
				p.Spread += d * weights[m] / c.Weight
			}
		}
	}
	res.weigh()
	return res, nil
}
