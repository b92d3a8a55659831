package adaptive

import (
	"fmt"
	"math"
	"sort"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/cluster"
	"barrierpoint/internal/reconstruct"
	"barrierpoint/internal/stats"
)

// DefaultConfidence is the two-sided level of an interval whose Options name
// none. The other four are the model's fixed tuning, not options: BatchSize
// is the number of clusters promoted per round; SpreadAlpha converts a
// cluster's signature spread (L1 distance, in [0, 2]) into a relative
// standard deviation of its members' per-instruction rates; PilotRel is the
// assumed relative rate dispersion of a cluster that has only one simulated
// member but more unsimulated ones — the pilot prior that forces a second
// sample before the cluster's measured variance is trusted; RelFloor is the
// irreducible relative error term covering warmup approximation bias.
// SpreadAlpha and RelFloor are calibrated on the npb suite so that 95%
// intervals cover ground-truth runtime (see adaptive_test.go and the CI
// adaptive smoke).
const (
	DefaultConfidence  = 0.95
	DefaultBatchSize   = 4
	DefaultSpreadAlpha = 0.25
	DefaultPilotRel    = 0.5
	DefaultRelFloor    = 0.01
)

// Options configures interval computation and the adaptive controller.
type Options struct {
	// TargetRel is the target relative half-width of the runtime interval
	// (e.g. 0.02 for ±2%). <= 0 means no promotion: Run stops after the
	// initial barrierpoint simulation, still reporting intervals.
	TargetRel float64
	// Confidence is the two-sided level: 0.90, 0.95 or 0.99 (0 means
	// DefaultConfidence).
	Confidence float64
	// Observer, when non-nil, receives stage timings as the run proceeds:
	// "simulate-points" for the initial barrierpoint simulation,
	// "reconstruct" for each interval evaluation/assembly pass, and
	// "adaptive-round" for each promotion batch's simulation. Telemetry
	// only — it never influences the promotion sequence or the estimate.
	Observer func(stage string, d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = DefaultConfidence
	}
	return o
}

// timeIdx is the runtime slot of reconstruct.Metrics, the one the controller
// targets and ranks by.
const timeIdx = 1

// model is the per-cluster view of a selection the sampler works over.
type model struct {
	sel      *bp.Selection
	clusters []cluster.Cluster // in sel.Points order
}

// newModel takes the selection's per-cluster view. Its member lists and
// weights are summed in the order cluster.Select sums a multiplier's
// operands, so the scale Weight/w_rep of a single-rep cluster is
// bit-identical to the stored Multiplier.
func newModel(sel *bp.Selection) (*model, error) {
	if len(sel.RegionWeights) != len(sel.Assignment) {
		return nil, fmt.Errorf("adaptive: selection has %d weights for %d regions",
			len(sel.RegionWeights), len(sel.Assignment))
	}
	m := &model{sel: sel, clusters: sel.Clusters()}
	members := 0
	for _, c := range m.clusters {
		members += len(c.Members)
	}
	if n := len(sel.Assignment); members != n {
		return nil, fmt.Errorf("adaptive: %d of %d regions assigned to a cluster with no barrierpoint", n-members, n)
	}
	return m, nil
}

// repDist returns region r's signature distance to its cluster
// representative; selections saved before distances existed degrade to 0
// (promotion order falls back to region index).
func (m *model) repDist(r int) float64 {
	if len(m.sel.RepDists) == 0 {
		return 0
	}
	return m.sel.RepDists[r]
}

// clusterEval is one cluster's reconstruction contribution and uncertainty
// given the currently simulated regions.
type clusterEval struct {
	contrib  reconstruct.Metrics // scaled metric contribution
	unsimW   float64             // unsimulated instruction weight
	rateVars reconstruct.Metrics // variance of the per-instruction rate estimate
	dof      float64             // degrees of freedom (Inf for proxy / exact)
	simmed   []int               // simulated members, ascending
	unsimmed []int               // unsimulated members, ascending
}

// timeVar is the cluster's contribution to runtime variance — the
// controller's ranking key.
func (e clusterEval) timeVar() float64 { return e.unsimW * e.unsimW * e.rateVars[timeIdx] }

// evaluate splits every cluster's members into simulated and not, and
// computes each cluster's contribution and variance.
func (m *model) evaluate(results map[int]bp.RegionResult) ([]clusterEval, error) {
	evals := make([]clusterEval, len(m.clusters))
	for i, c := range m.clusters {
		e := &evals[i]
		var simW float64
		var sumVec reconstruct.Metrics
		for _, r := range c.Members {
			if _, ok := results[r]; !ok {
				e.unsimmed = append(e.unsimmed, r)
				continue
			}
			e.simmed = append(e.simmed, r)
			simW += m.sel.RegionWeights[r]
			for k, x := range reconstruct.Of(results[r]) {
				sumVec[k] += x
			}
		}
		if len(e.simmed) == 0 {
			return nil, fmt.Errorf("adaptive: cluster %d has no simulated member", c.Point.Cluster)
		}

		// Contribution. A single simulated representative uses the stored
		// Multiplier so the reconstruction is bit-identical to
		// reconstruct.Reconstruct; otherwise scale the simulated metric sum
		// by remaining weight. A fully simulated cluster's scale is exactly
		// 1.0: simW sums the same weights in the same ascending order as
		// c.Weight.
		scale := 0.0
		if len(e.simmed) == 1 && e.simmed[0] == c.Point.Region {
			scale = c.Point.Multiplier
		} else if simW > 0 {
			scale = c.Weight / simW
		}
		for k := range sumVec {
			e.contrib[k] = sumVec[k] * scale
		}

		// Uncertainty: only the extrapolation onto unsimulated weight is
		// uncertain (see doc.go).
		e.unsimW = c.Weight - simW
		if e.unsimW < 0 {
			e.unsimW = 0
		}
		e.dof = math.Inf(1)
		if e.unsimW == 0 {
			continue
		}
		if n := len(e.simmed); n >= 2 {
			rates := make([]float64, n)
			for k := range e.rateVars {
				for j, r := range e.simmed {
					if w := m.sel.RegionWeights[r]; w > 0 {
						rates[j] = reconstruct.Of(results[r])[k] / w
					} else {
						rates[j] = 0
					}
				}
				e.rateVars[k] = stats.Variance(rates) / float64(n)
			}
			e.dof = float64(n - 1)
		} else {
			// One simulated member, more unsimulated: no sample variance
			// exists yet, and signature spread alone badly understates rate
			// dispersion (near-identical signatures do not imply similar
			// per-instruction time: region size and warmup effects dominate).
			// Assume a large pilot prior so the controller draws a second
			// sample before trusting the cluster.
			rep := e.simmed[0]
			w := m.sel.RegionWeights[rep]
			if w > 0 {
				rel := DefaultPilotRel + DefaultSpreadAlpha*c.Point.Spread
				for k, x := range reconstruct.Of(results[rep]) {
					sigma := math.Abs(x/w) * rel
					e.rateVars[k] = sigma * sigma
				}
			}
		}
	}
	return evals, nil
}

// intervals assembles the interval estimate from per-cluster evaluations:
// contributions sum in selection order, cluster variances propagate as the
// weighted sum Σ W_un²·var_rate, degrees of freedom combine per
// Welch–Satterthwaite, and the t-margin widens in quadrature by the
// relative floor.
func assemble(evals []clusterEval, opts Options) (reconstruct.IntervalEstimate, error) {
	var estVec, varVec reconstruct.Metrics
	wuns := make([]float64, len(evals))
	rvars := make([]float64, len(evals))
	for i := range evals {
		for k := range estVec {
			estVec[k] += evals[i].contrib[k]
		}
		wuns[i] = evals[i].unsimW
	}
	for k := range varVec {
		for i := range evals {
			rvars[i] = evals[i].rateVars[k]
		}
		v, err := stats.WeightedSumVariance(wuns, rvars)
		if err != nil {
			return reconstruct.IntervalEstimate{}, err
		}
		varVec[k] = v
	}

	// Welch–Satterthwaite over the runtime variance components; proxy and
	// exact clusters (infinite dof) contribute nothing to the denominator.
	var den float64
	for i := range evals {
		if v := evals[i].timeVar(); v > 0 && !math.IsInf(evals[i].dof, 1) {
			den += v * v / evals[i].dof
		}
	}
	dof := math.Inf(1)
	if den > 0 {
		dof = varVec[timeIdx] * varVec[timeIdx] / den
	}
	t, err := stats.TCritical(dof, opts.Confidence)
	if err != nil {
		return reconstruct.IntervalEstimate{}, err
	}

	var marginVec reconstruct.Metrics
	for k := range marginVec {
		sampling := t * t * varVec[k]
		floor := DefaultRelFloor * estVec[k]
		marginVec[k] = math.Sqrt(sampling + floor*floor)
	}
	return reconstruct.IntervalEstimate{
		Estimate:   estVec.Estimate(),
		Margin:     marginVec.Estimate(),
		Confidence: opts.Confidence,
	}, nil
}

// Intervals computes the interval estimate for an existing set of simulated
// region results — at minimum one simulated member (normally the
// representative) per cluster. It is the error-bar attachment every
// estimate gets, whether or not the adaptive controller ran.
func Intervals(sel *bp.Selection, results map[int]bp.RegionResult, opts Options) (reconstruct.IntervalEstimate, error) {
	opts = opts.withDefaults()
	m, err := newModel(sel)
	if err != nil {
		return reconstruct.IntervalEstimate{}, err
	}
	evals, err := m.evaluate(results)
	if err != nil {
		return reconstruct.IntervalEstimate{}, err
	}
	return assemble(evals, opts)
}

// nextBatch picks the regions to promote this round: the top DefaultBatchSize
// clusters by runtime variance contribution (ties to the lower cluster id)
// each contribute their runner-up — the unsimulated member nearest the
// representative in signature distance (ties to the lower region index).
// The returned batch is in ascending region order. Empty means exhausted.
func (m *model) nextBatch(evals []clusterEval) []int {
	order := make([]int, 0, len(evals))
	for i := range evals {
		if len(evals[i].unsimmed) > 0 {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		va, vb := evals[order[a]].timeVar(), evals[order[b]].timeVar()
		if va != vb {
			return va > vb
		}
		return m.clusters[order[a]].Point.Cluster < m.clusters[order[b]].Point.Cluster
	})
	order = order[:min(len(order), DefaultBatchSize)]
	var batch []int
	for _, i := range order {
		best := -1
		for _, r := range evals[i].unsimmed {
			if best == -1 || m.repDist(r) < m.repDist(best) {
				best = r
			}
		}
		batch = append(batch, best)
	}
	sort.Ints(batch)
	return batch
}

// Round records one promotion round of the controller.
type Round struct {
	Promoted []int   `json:"promoted"` // regions promoted, ascending
	Rel      float64 `json:"rel"`      // runtime relative half-width after merging
}

// Result is the outcome of an adaptive run.
type Result struct {
	Estimate   reconstruct.IntervalEstimate
	Results    map[int]bp.RegionResult // every simulated region's result
	Simulated  []int                   // simulated region indices, ascending
	Rounds     []Round                 // promotion rounds, in order
	Met        bool                    // target reached (false: exhausted or no target)
	InitialRel float64                 // runtime relative half-width before any promotion
}

// Run executes the adaptive sampling loop: simulate the selected
// barrierpoints through runner, then repeatedly promote the runner-up
// regions of the most uncertain clusters — as one batch per round through
// the same runner, so promotions farm out exactly like the initial points —
// until the runtime interval's relative half-width reaches opts.TargetRel
// or every cluster is fully simulated. The promotion sequence and final
// estimate are pure functions of the selection, results and options:
// byte-identical across runs and across runners.
func Run(a *bp.Analysis, runner bp.PointRunner, mc bp.MachineConfig, mode bp.WarmupMode, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	observe := func(stage string, t0 time.Time) {
		if opts.Observer != nil {
			opts.Observer(stage, time.Since(t0))
		}
	}
	m, err := newModel(a.Selection)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	results, err := a.SimulatePointsWith(runner, mc, mode)
	observe("simulate-points", t0)
	if err != nil {
		return nil, err
	}

	res := &Result{Results: results}
	for {
		t0 := time.Now()
		evals, err := m.evaluate(results)
		if err != nil {
			return nil, err
		}
		ie, err := assemble(evals, opts)
		observe("reconstruct", t0)
		if err != nil {
			return nil, err
		}
		res.Estimate = ie
		rel := ie.RelTime()
		if len(res.Rounds) == 0 {
			res.InitialRel = rel
		} else {
			res.Rounds[len(res.Rounds)-1].Rel = rel
		}
		if opts.TargetRel > 0 && rel <= opts.TargetRel {
			res.Met = true
			break
		}
		if opts.TargetRel <= 0 {
			break
		}
		batch := m.nextBatch(evals)
		if len(batch) == 0 {
			break // exhausted: every cluster fully simulated
		}
		t1 := time.Now()
		promoted, err := runner.RunPoints(a.Program, batch, mc, mode)
		observe("adaptive-round", t1)
		if err != nil {
			return nil, fmt.Errorf("adaptive: promoting regions %v: %w", batch, err)
		}
		for r, rr := range promoted {
			results[r] = rr
		}
		res.Rounds = append(res.Rounds, Round{Promoted: batch})
	}

	res.Simulated = make([]int, 0, len(results))
	for r := range results {
		res.Simulated = append(res.Simulated, r)
	}
	sort.Ints(res.Simulated)
	return res, nil
}
