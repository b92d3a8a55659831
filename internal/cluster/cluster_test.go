package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"barrierpoint/internal/signature"
	"barrierpoint/internal/sparse"
)

// blobSVs builds n signature vectors in g well-separated groups; members of
// a group differ only by a small perturbation.
func blobSVs(n, g int) ([]signature.SV, []float64, []int) {
	svs := make([]signature.SV, n)
	weights := make([]float64, n)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		grp := i % g
		// Each group occupies its own feature ids.
		svs[i] = sparse.SortMerge(signature.SV{
			{Key: uint64(grp * 10), Val: 0.7},
			{Key: uint64(grp*10 + 1), Val: 0.3 - 0.001*float64(i/g%3)},
			{Key: uint64(grp*10 + 2), Val: 0.001 * float64(i/g%3)},
		})
		weights[i] = 1000 + float64(i%7)
		truth[i] = grp
	}
	return svs, weights, truth
}

func TestProjectDeterministic(t *testing.T) {
	sv := sparse.SortMerge(signature.SV{{Key: 1, Val: 0.5}, {Key: 99, Val: 0.5}})
	a := Project(sv, 15, 42)
	b := Project(sv, 15, 42)
	for d := range a {
		if a[d] != b[d] {
			t.Fatal("projection not deterministic")
		}
	}
	c := Project(sv, 15, 43)
	same := true
	for d := range a {
		if a[d] != c[d] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical projections")
	}
}

func TestProjectPreservesSeparation(t *testing.T) {
	// Distant sparse vectors stay distant after projection; identical ones
	// coincide.
	a := sparse.SortMerge(signature.SV{{Key: 1, Val: 1.0}})
	b := sparse.SortMerge(signature.SV{{Key: 2, Val: 1.0}})
	pa, pb := Project(a, 15, 1), Project(b, 15, 1)
	var d2 float64
	for d := range pa {
		d2 += (pa[d] - pb[d]) * (pa[d] - pb[d])
	}
	if d2 < 1e-4 {
		t.Errorf("distinct vectors projected to distance² %v", d2)
	}
	pa2 := Project(sparse.SortMerge(signature.SV{{Key: 1, Val: 1.0}}), 15, 1)
	for d := range pa {
		if pa[d] != pa2[d] {
			t.Fatal("identical vectors projected differently")
		}
	}
}

func TestKMeansAssignmentOptimal(t *testing.T) {
	svs, weights, _ := blobSVs(60, 4)
	points := ProjectAll(svs, 8, 7)
	res := kMeans(classify(points), weights, 4, 99, 100)
	for i, p := range points {
		best, bestD := -1, math.Inf(1)
		for c := range res.Centroids {
			if d := sqDist(p, res.Centroids[c]); d < bestD {
				best, bestD = c, d
			}
		}
		if res.Assignment[i] != best {
			t.Fatalf("point %d assigned to %d, nearest centroid is %d", i, res.Assignment[i], best)
		}
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	svs, weights, truth := blobSVs(80, 4)
	points := ProjectAll(svs, 10, 3)
	res := kMeans(classify(points), weights, 4, 5, 100)
	// All members of a true group must share a cluster.
	grpCluster := map[int]int{}
	for i := range points {
		g := truth[i]
		if c, ok := grpCluster[g]; ok {
			if res.Assignment[i] != c {
				t.Fatalf("group %d split across clusters", g)
			}
		} else {
			grpCluster[g] = res.Assignment[i]
		}
	}
	if len(grpCluster) != 4 {
		t.Errorf("expected 4 clusters used, got %d", len(grpCluster))
	}
}

func TestWCSSDecreasesWithK(t *testing.T) {
	svs, weights, _ := blobSVs(60, 6)
	points := ProjectAll(svs, 10, 3)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		res := kMeans(classify(points), weights, k, uint64(k)*3, 100)
		if res.WCSS > prev+1e-9 {
			t.Errorf("WCSS increased at k=%d: %v > %v", k, res.WCSS, prev)
		}
		prev = res.WCSS
	}
}

func TestSelectFindsStructure(t *testing.T) {
	svs, weights, truth := blobSVs(100, 5)
	res, err := Select(svs, weights, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 3 || res.K > 8 {
		t.Errorf("K = %d for 5 true groups", res.K)
	}
	// Multipliers weighted by rep weight must sum to the total weight.
	var sum, total float64
	for _, p := range res.Points {
		sum += p.Multiplier * weights[p.Region]
	}
	for _, w := range weights {
		total += w
	}
	if math.Abs(sum-total)/total > 1e-9 {
		t.Errorf("Σ mult·w_rep = %v, want %v", sum, total)
	}
	// Weights sum to 1.
	var wsum float64
	for _, p := range res.Points {
		wsum += p.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Errorf("Σ weights = %v", wsum)
	}
	// Representatives belong to their own cluster.
	for _, p := range res.Points {
		if res.Assignment[p.Region] != p.Cluster {
			t.Errorf("rep %d not in cluster %d", p.Region, p.Cluster)
		}
	}
	_ = truth
}

func TestSelectSingleRegion(t *testing.T) {
	res, err := Select([]signature.SV{sparse.SortMerge(signature.SV{{Key: 1, Val: 1.0}})}, []float64{5}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 || len(res.Points) != 1 || res.Points[0].Multiplier != 1 {
		t.Errorf("singleton selection wrong: %+v", res)
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := Select(nil, nil, DefaultParams()); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Select([]signature.SV{{}}, []float64{1, 2}, DefaultParams()); err == nil {
		t.Error("mismatched weights accepted")
	}
	bad := DefaultParams()
	bad.Dim = 0
	if _, err := Select([]signature.SV{{}}, []float64{1}, bad); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSelectDeterministic(t *testing.T) {
	svs, weights, _ := blobSVs(50, 3)
	a, _ := Select(svs, weights, DefaultParams())
	b, _ := Select(svs, weights, DefaultParams())
	if a.K != b.K {
		t.Fatal("non-deterministic K")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("non-deterministic selection")
		}
	}
}

func TestPointFor(t *testing.T) {
	svs, weights, _ := blobSVs(30, 3)
	res, _ := Select(svs, weights, DefaultParams())
	for i := range svs {
		p := res.PointFor(i)
		if p == nil {
			t.Fatalf("region %d has no point", i)
		}
		if p.Cluster != res.Assignment[i] {
			t.Errorf("PointFor(%d) returned cluster %d, assignment says %d", i, p.Cluster, res.Assignment[i])
		}
	}
}

func TestSignificant(t *testing.T) {
	res := &Result{Points: []BarrierPoint{
		{Region: 0, Weight: 0.5},
		{Region: 1, Weight: 0.0005},
		{Region: 2, Weight: 0.4995},
	}}
	sig, insig := res.Significant()
	if len(sig) != 2 || len(insig) != 1 || insig[0].Region != 1 {
		t.Errorf("Significant split wrong: %v | %v", sig, insig)
	}
}

func TestRebind(t *testing.T) {
	svs, weights, _ := blobSVs(40, 4)
	sel, _ := Select(svs, weights, DefaultParams())
	// Double all weights: multipliers must be unchanged (scale-free),
	// assignment identical.
	w2 := make([]float64, len(weights))
	for i, w := range weights {
		w2[i] = 2 * w
	}
	re := Rebind(sel, w2)
	if re.K != sel.K {
		t.Fatal("Rebind changed K")
	}
	for i := range sel.Points {
		if re.Points[i].Region != sel.Points[i].Region {
			t.Fatal("Rebind changed representatives")
		}
		if math.Abs(re.Points[i].Multiplier-sel.Points[i].Multiplier) > 1e-9 {
			t.Errorf("uniform rescale changed multiplier: %v vs %v",
				re.Points[i].Multiplier, sel.Points[i].Multiplier)
		}
	}
}

func TestBICFloorPreventsDegenerateSplits(t *testing.T) {
	// 100 near-identical regions with 5 micro-variants: without the
	// variance floor, BIC degenerates and picks maxK (20); with it, K
	// stays at the actual structure (at most ~6).
	svs := make([]signature.SV, 100)
	weights := make([]float64, 100)
	for i := range svs {
		svs[i] = sparse.SortMerge(signature.SV{
			{Key: 1, Val: 0.999 - 1e-6*float64(i%5)},
			{Key: 2, Val: 0.001 + 1e-6*float64(i%5)},
		})
		weights[i] = 1
	}
	res, err := Select(svs, weights, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.K > 6 {
		t.Errorf("near-identical regions split into K=%d clusters", res.K)
	}
}

// TestProjectMemoizationExact proves the shared-projector path (memoized
// per-feature rows) is bit-identical to evaluating projEntry directly.
func TestProjectMemoizationExact(t *testing.T) {
	svs, _, _ := blobSVs(40, 4)
	const dim, seed = 15, 42
	got := ProjectAll(svs, dim, seed)
	for i, sv := range svs {
		want := make([]float64, dim)
		for _, e := range sv {
			for d := 0; d < dim; d++ {
				want[d] += e.Val * projEntry(e.Key, d, seed)
			}
		}
		for d := 0; d < dim; d++ {
			if got[i][d] != want[d] {
				t.Fatalf("sv %d dim %d: memoized %v != direct %v", i, d, got[i][d], want[d])
			}
		}
		single := Project(sv, dim, seed)
		for d := 0; d < dim; d++ {
			if single[d] != got[i][d] {
				t.Fatalf("sv %d dim %d: Project differs from ProjectAll", i, d)
			}
		}
	}
}

func TestProjEntryRange(t *testing.T) {
	f := func(feature uint64, dim uint8) bool {
		v := projEntry(feature, int(dim%32), 42)
		return v >= -0.5 && v < 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSelectSpreadAndRepDists(t *testing.T) {
	svs, weights, _ := blobSVs(60, 3)
	res, err := Select(svs, weights, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RepDists) != len(svs) {
		t.Fatalf("RepDists has %d entries for %d regions", len(res.RepDists), len(svs))
	}
	for _, p := range res.Points {
		if res.RepDists[p.Region] != 0 {
			t.Errorf("representative %d has nonzero distance to itself: %v", p.Region, res.RepDists[p.Region])
		}
		if p.Spread < 0 || p.Spread > 2 {
			t.Errorf("cluster %d spread %v outside the L1 range [0, 2]", p.Cluster, p.Spread)
		}
		// Spread is the weighted mean of the members' RepDists.
		var clusterW, want float64
		for i, c := range res.Assignment {
			if c != p.Cluster {
				continue
			}
			clusterW += weights[i]
		}
		for i, c := range res.Assignment {
			if c != p.Cluster || i == p.Region {
				continue
			}
			want += res.RepDists[i] * weights[i] / clusterW
			if res.RepDists[i] != signature.Distance(svs[i], svs[p.Region]) {
				t.Errorf("region %d: RepDists %v != signature distance", i, res.RepDists[i])
			}
		}
		if math.Abs(p.Spread-want) > 1e-12 {
			t.Errorf("cluster %d spread %v, want %v", p.Cluster, p.Spread, want)
		}
	}
	// Members of a blob differ only by tiny perturbations, so spreads must
	// be small but (with 3 perturbation levels per group) mostly nonzero.
	var nonzero int
	for _, p := range res.Points {
		if p.Spread > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Error("every cluster spread is zero over perturbed blobs")
	}
}

// rowsCase is one seeded input for the reference comparison: n rows drawn
// (by value) from `distinct` random rows, so classes exist only as equal
// bit patterns, never as shared slices.
type rowsCase struct {
	name        string
	n, distinct int
	maxK        int
	zeroWeights bool // every third weight is 0
}

func (c rowsCase) build(seed int64) (points [][]float64, weights []float64) {
	const dim = 15
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, c.distinct)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for d := range rows[i] {
			rows[i][d] = r.NormFloat64()
		}
	}
	for i := 0; i < c.n; i++ {
		src := rows[i%c.distinct]
		if i >= c.distinct {
			src = rows[r.Intn(c.distinct)]
		}
		points = append(points, append([]float64(nil), src...))
		w := float64(1 + r.Intn(5000))
		if c.zeroWeights && i%3 == 0 {
			w = 0
		}
		weights = append(weights, w)
	}
	return points, weights
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRowClassesMatchPerPointReference drives the class-based kMeans, bic
// and dataVariance against the per-point originals and demands equality of
// every field, floats by bit pattern. The cases cover each branch where
// duplicates matter: the k-means++ total == 0 fallback (all rows equal),
// the empty-cluster reseed (k above the number of distinct rows), zero
// weights, and inputs with no duplicate at all.
func TestRowClassesMatchPerPointReference(t *testing.T) {
	cases := []rowsCase{
		{name: "many-duplicates", n: 300, distinct: 12, maxK: 20},
		{name: "all-identical", n: 50, distinct: 1, maxK: 5},
		{name: "k-above-distinct", n: 40, distinct: 3, maxK: 8},
		{name: "k-above-n", n: 6, distinct: 2, maxK: 8},
		{name: "zero-weights", n: 120, distinct: 9, maxK: 12, zeroWeights: true},
		{name: "no-duplicates", n: 60, distinct: 60, maxK: 10},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			points, weights := c.build(seed)
			rc := classify(points)
			if len(rc.rows) != c.distinct {
				t.Fatalf("%s/%d: %d classes, want %d", c.name, seed, len(rc.rows), c.distinct)
			}
			var wTotal float64
			for _, w := range weights {
				wTotal += w
			}
			if got, want := dataVariance(rc, weights, wTotal), refDataVariance(points, weights, wTotal); !sameBits(got, want) {
				t.Errorf("%s/%d: dataVariance %v, reference %v", c.name, seed, got, want)
			}
			for k := 1; k <= c.maxK; k++ {
				kseed := uint64(seed)*7919 + uint64(k)
				got, want := kMeans(rc, weights, k, kseed, 100), refKMeans(points, weights, k, kseed, 100)
				if got.K != want.K || !reflect.DeepEqual(got.Assignment, want.Assignment) || !sameBits(got.WCSS, want.WCSS) {
					t.Fatalf("%s/%d k=%d: K %d/%d WCSS %v/%v assignment equal=%v", c.name, seed, k,
						got.K, want.K, got.WCSS, want.WCSS, reflect.DeepEqual(got.Assignment, want.Assignment))
				}
				for ci := range want.Centroids {
					for d := range want.Centroids[ci] {
						if !sameBits(got.Centroids[ci][d], want.Centroids[ci][d]) {
							t.Fatalf("%s/%d k=%d: centroid %d dim %d: %v, reference %v", c.name, seed, k, ci, d,
								got.Centroids[ci][d], want.Centroids[ci][d])
						}
					}
				}
				if g, w := bic(rc, weights, got), refBIC(points, weights, want); !sameBits(g, w) {
					t.Errorf("%s/%d k=%d: bic %v, reference %v", c.name, seed, k, g, w)
				}
			}
		}
	}
}

// refKMeans, refBIC and refDataVariance are the per-point implementations
// as they stood before distances were measured once per row class (commit
// 2e71d62), kept verbatim as the reference the class-based ones must match
// bit for bit.
//
// refKMeans runs weighted Lloyd's algorithm with k-means++ seeding.
// Weights scale each point's influence on centroids and on WCSS.
func refKMeans(points [][]float64, weights []float64, k int, seed uint64, maxIters int) KMeansResult {
	n := len(points)
	if k > n {
		k = n
	}
	dim := len(points[0])
	r := newRNG(seed)

	// k-means++ seeding (weighted). Centroid rows share one backing array
	// so a solution costs two allocations, not k+2.
	backing := make([]float64, 0, k*dim)
	centroids := make([][]float64, 0, k)
	addCentroid := func(p []float64) {
		backing = append(backing, p...) // cap k*dim: never reallocates
		centroids = append(centroids, backing[len(backing)-dim:len(backing):len(backing)])
	}
	d2 := make([]float64, n)
	first := weightedPick(weights, r)
	addCentroid(points[first])
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			d := sqDist(p, centroids[len(centroids)-1])
			if len(centroids) == 1 || d < d2[i] {
				d2[i] = d
			}
			total += d2[i] * weights[i]
		}
		if total == 0 {
			// All remaining points coincide with centroids; duplicate one.
			addCentroid(points[weightedPick(weights, r)])
			continue
		}
		target := r.float() * total
		pick := n - 1
		var acc float64
		for i := range points {
			acc += d2[i] * weights[i]
			if acc >= target {
				pick = i
				break
			}
		}
		addCentroid(points[pick])
	}

	assign := make([]int, n)
	wsum := make([]float64, k) // reused across iterations
	for iter := 0; iter < maxIters; iter++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if d := sqDist(p, centroids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
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
		for i, p := range points {
			c := assign[i]
			wsum[c] += weights[i]
			for d := 0; d < dim; d++ {
				centroids[c][d] += p[d] * weights[i]
			}
		}
		for c := range centroids {
			if wsum[c] == 0 {
				// Empty cluster: reseed at the point farthest from its
				// centroid (weighted by point weight).
				far, farD := 0, -1.0
				for i, p := range points {
					d := sqDist(p, centroids[assign[i]]) * weights[i]
					if d > farD {
						far, farD = i, d
					}
				}
				copy(centroids[c], points[far])
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] /= wsum[c]
			}
		}
	}

	var wcss float64
	for i, p := range points {
		wcss += sqDist(p, centroids[assign[i]]) * weights[i]
	}
	return KMeansResult{K: k, Assignment: assign, Centroids: centroids, WCSS: wcss}
}

// refBIC scores a clustering with the Bayesian Information Criterion under a
// spherical Gaussian model, as SimPoint does: higher is better; the
// parameter penalty grows with k, trading fit against model size.
func refBIC(points [][]float64, weights []float64, res KMeansResult) float64 {
	n := len(points)
	dim := len(points[0])
	k := res.K

	var wTotal float64
	for _, w := range weights {
		wTotal += w
	}
	// Cluster weights.
	wc := make([]float64, k)
	for i := range points {
		wc[res.Assignment[i]] += weights[i]
	}
	// Pooled variance estimate, floored at a small fraction of the data's
	// total variance. Without the floor, BIC degenerates for near-
	// duplicate regions (repeated identical kernels): splitting an
	// already-tight blob drives the variance toward zero and the
	// log-likelihood toward +inf, so model selection would always pick
	// maxK. The floor caps the reward for resolving structure finer than
	// 1/1000 of the data spread.
	variance := res.WCSS / math.Max(wTotal-float64(k), 1)
	if floor := refDataVariance(points, weights, wTotal) * 1e-3; variance < floor {
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
	_ = n
	return loglik - params/2*math.Log(wTotal)
}

// refDataVariance returns the weighted variance of the points around their
// weighted mean: the k=1 within-cluster variance, used as the BIC floor.
func refDataVariance(points [][]float64, weights []float64, wTotal float64) float64 {
	if wTotal <= 0 {
		return 0
	}
	dim := len(points[0])
	mean := make([]float64, dim)
	for i, p := range points {
		for d := 0; d < dim; d++ {
			mean[d] += p[d] * weights[i]
		}
	}
	for d := 0; d < dim; d++ {
		mean[d] /= wTotal
	}
	var wcss float64
	for i, p := range points {
		wcss += sqDist(p, mean) * weights[i]
	}
	return wcss / wTotal
}
