package cluster

import (
	"encoding/binary"
	"math"
)

// rng is a small deterministic PRNG (xorshift*) for k-means seeding.
type rng uint64

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x853C49E6748FEA9B
	}
	r := rng(seed)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// KMeansResult holds a single weighted k-means solution.
type KMeansResult struct {
	K          int
	Assignment []int       // point index -> cluster id
	Centroids  [][]float64 // cluster id -> centre
	WCSS       float64     // weighted within-cluster sum of squares
}

// rowClasses groups the projected rows by exact bit equality: of maps a
// region to its class, rows holds the one row each class's members share.
// Distances are measured per class, sums taken per region (package comment).
type rowClasses struct {
	of   []int
	rows [][]float64
}

func classify(points [][]float64) rowClasses {
	rc := rowClasses{of: make([]int, len(points))}
	ids := make(map[string]int)
	var key []byte
	for i, p := range points {
		key = key[:0]
		for _, v := range p {
			key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
		}
		id, ok := ids[string(key)]
		if !ok {
			id = len(rc.rows)
			ids[string(key)] = id
			rc.rows = append(rc.rows, p)
		}
		rc.of[i] = id
	}
	return rc
}

// dists sets out[cl] to the squared distance from class cl's row to its
// target centre.
func (rc rowClasses) dists(out []float64, target func(cl int) []float64) {
	for cl, row := range rc.rows {
		out[cl] = sqDist(row, target(cl))
	}
}

// kMeans runs weighted Lloyd's algorithm with k-means++ seeding.
// Weights scale each point's influence on centroids and on WCSS.
func kMeans(rc rowClasses, weights []float64, k int, seed uint64, maxIters int) KMeansResult {
	n := len(rc.of)
	if k > n {
		k = n
	}
	dim := len(rc.rows[0])
	r := newRNG(seed)

	// k-means++ seeding (weighted). Centroid rows share one backing array
	// so a solution costs two allocations, not k+2.
	backing := make([]float64, 0, k*dim)
	centroids := make([][]float64, 0, k)
	addCentroid := func(region int) {
		backing = append(backing, rc.rows[rc.of[region]]...) // cap k*dim: never reallocates
		centroids = append(centroids, backing[len(backing)-dim:len(backing):len(backing)])
	}
	// Per-class distances: to the nearest centroid seeded so far, later to
	// the class's own centroid.
	dist := make([]float64, len(rc.rows))
	addCentroid(weightedPick(weights, r))
	for len(centroids) < k {
		last := centroids[len(centroids)-1]
		for cl, row := range rc.rows {
			if d := sqDist(row, last); len(centroids) == 1 || d < dist[cl] {
				dist[cl] = d
			}
		}
		var total float64
		for i, cl := range rc.of {
			total += dist[cl] * weights[i]
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			addCentroid(weightedPick(weights, r))
			continue
		}
		target := r.float() * total
		pick := n - 1
		var acc float64
		for i, cl := range rc.of {
			acc += dist[cl] * weights[i]
			if acc >= target {
				pick = i
				break
			}
		}
		addCentroid(pick)
	}

	near := make([]int, len(rc.rows)) // class -> nearest centroid
	own := func(cl int) []float64 { return centroids[near[cl]] }
	wsum := make([]float64, k) // reused across iterations
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for cl, row := range rc.rows {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(row, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if near[cl] != best {
				near[cl] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute weighted centroids.
		clear(wsum)
		for c := range centroids {
			for d := 0; d < dim; d++ {
				centroids[c][d] = 0
			}
		}
		for i, cl := range rc.of {
			c, p := near[cl], rc.rows[cl]
			wsum[c] += weights[i]
			for d := 0; d < dim; d++ {
				centroids[c][d] += p[d] * weights[i]
			}
		}
		for c := range centroids {
			if wsum[c] == 0 {
				// Empty cluster: reseed at the point farthest from its
				// centroid (weighted by point weight).
				rc.dists(dist, own)
				far, farD := 0, -1.0
				for i, cl := range rc.of {
					if d := dist[cl] * weights[i]; d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], rc.rows[rc.of[far]])
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] /= wsum[c]
			}
		}
	}

	assign := make([]int, n)
	rc.dists(dist, own)
	var wcss float64
	for i, cl := range rc.of {
		assign[i] = near[cl]
		wcss += dist[cl] * weights[i]
	}
	return KMeansResult{K: k, Assignment: assign, Centroids: centroids, WCSS: wcss}
}

func weightedPick(weights []float64, r *rng) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	target := r.float() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if acc >= target {
			return i
		}
	}
	return len(weights) - 1
}

// bic scores a clustering with the Bayesian Information Criterion under a
// spherical Gaussian model, as SimPoint does: higher is better; the
// parameter penalty grows with k, trading fit against model size.
func bic(rc rowClasses, weights []float64, res KMeansResult) float64 {
	dim := len(rc.rows[0])
	k := res.K

	var wTotal float64
	for _, w := range weights {
		wTotal += w
	}
	// Cluster weights.
	wc := make([]float64, k)
	for i, w := range weights {
		wc[res.Assignment[i]] += w
	}
	// Pooled variance estimate, floored at a small fraction of the data's
	// total variance. Without the floor, BIC degenerates for near-
	// duplicate regions (repeated identical kernels): splitting an
	// already-tight blob drives the variance toward zero and the
	// log-likelihood toward +inf, so model selection would always pick
	// maxK. The floor caps the reward for resolving structure finer than
	// 1/1000 of the data spread.
	variance := res.WCSS / math.Max(wTotal-float64(k), 1)
	if floor := dataVariance(rc, weights, wTotal) * 1e-3; variance < floor {
		variance = floor
	}
	if variance <= 0 {
		variance = 1e-12
	}
	var loglik float64
	for c := 0; c < k; c++ {
		if wc[c] <= 0 {
			continue
		}
		nc := wc[c]
		loglik += nc*math.Log(nc/wTotal) -
			nc*float64(dim)/2*math.Log(2*math.Pi*variance) -
			(nc-1)/2*float64(dim)
	}
	params := float64(k) * (float64(dim) + 1)
	return loglik - params/2*math.Log(wTotal)
}

// dataVariance returns the weighted variance of the points around their
// weighted mean: the k=1 within-cluster variance, used as the BIC floor.
func dataVariance(rc rowClasses, weights []float64, wTotal float64) float64 {
	if wTotal <= 0 {
		return 0
	}
	dim := len(rc.rows[0])
	mean := make([]float64, dim)
	for i, cl := range rc.of {
		for d, v := range rc.rows[cl] {
			mean[d] += v * weights[i]
		}
	}
	for d := 0; d < dim; d++ {
		mean[d] /= wTotal
	}
	dist := make([]float64, len(rc.rows))
	rc.dists(dist, func(int) []float64 { return mean })
	var wcss float64
	for i, cl := range rc.of {
		wcss += dist[cl] * weights[i]
	}
	return wcss / wTotal
}
