package cluster

import "slices"

// Cluster is one cluster of a selection as its estimate weighs it.
type Cluster struct {
	Point   BarrierPoint // the cluster's representative
	Members []int        // region indices, ascending
	Weight  float64      // Σ member RegionWeights, summed in ascending region order
}

// Clusters returns the per-cluster view of r, one entry per point in Points
// order. A region assigned to a cluster without a point is in none of them.
func (r *Result) Clusters() []Cluster {
	out := make([]Cluster, len(r.Points))
	byCluster := make(map[int]int, len(r.Points)) // cluster id -> index
	for i, p := range r.Points {
		out[i].Point = p
		byCluster[p.Cluster] = i
	}
	for region, c := range r.Assignment {
		if i, ok := byCluster[c]; ok {
			out[i].Members = append(out[i].Members, region)
			out[i].Weight += r.RegionWeights[region]
		}
	}
	return out
}

// weigh sets every point's Multiplier, its cluster's weight over the
// representative's own (§III-D), and Weight, its cluster's share of the
// total, from RegionWeights. A zero-weight representative gets multiplier 0
// and a zero total weight 0.
func (r *Result) weigh() {
	var total float64
	for _, w := range r.RegionWeights {
		total += w
	}
	for i, c := range r.Clusters() {
		p := &r.Points[i]
		p.Multiplier, p.Weight = 0, 0
		if w := r.RegionWeights[p.Region]; w > 0 {
			p.Multiplier = c.Weight / w
		}
		if total > 0 {
			p.Weight = c.Weight / total
		}
	}
}

// Rebind transfers a selection to other region weights, keeping assignment,
// representatives (barrierpoints are fixed units of work, paper §VI-A3) and
// signature geometry, and weighing anew. With another machine's instruction
// counts it is the paper's cross-architecture use (Fig. 6); with unit weights
// every multiplier is its cluster's member count, the unscaled ablation.
func Rebind(sel *Result, weights []float64) *Result {
	out := *sel
	out.Points = slices.Clone(sel.Points)
	out.RegionWeights = weights
	out.weigh()
	return &out
}
