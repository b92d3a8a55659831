package stats

import (
	"fmt"
	"math"
)

// Variance returns the unbiased (n-1 denominator) sample variance of xs.
// It returns 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// WeightedSumVariance propagates independent per-term variances through the
// weighted sum Σ w_i·X_i: Var(Σ w_i·X_i) = Σ w_i²·Var(X_i). This is the
// SMARTS-style propagation step of the adaptive sampler: each cluster's
// contribution is an independently estimated term scaled by its remaining
// instruction weight.
func WeightedSumVariance(weights, variances []float64) (float64, error) {
	if len(weights) != len(variances) {
		return 0, fmt.Errorf("stats: %d weights for %d variances", len(weights), len(variances))
	}
	var v float64
	for i, w := range weights {
		v += w * w * variances[i]
	}
	return v, nil
}

// tTable holds two-sided Student-t critical values indexed by degrees of
// freedom 1..30; rows beyond 30 fall through to the asymptotic normal
// quantile. Values are the standard t-distribution table.
var tTable = map[float64][30]float64{
	0.90: {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
		1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
		1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697},
	0.95: {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042},
	0.99: {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
		3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
		2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750},
}

// zTable holds the asymptotic (normal) two-sided critical values used for
// large degrees of freedom.
var zTable = map[float64]float64{0.90: 1.645, 0.95: 1.960, 0.99: 2.576}

// TCritical returns the two-sided Student-t critical value for the given
// degrees of freedom and confidence level (0.90, 0.95 or 0.99). Fractional
// degrees of freedom (Welch–Satterthwaite) round down conservatively;
// dof <= 0 and dof > 30 both use the asymptotic normal quantile — the
// former because a proxy variance with no measured samples has no
// small-sample correction to apply.
func TCritical(dof, confidence float64) (float64, error) {
	row, ok := tTable[confidence]
	if !ok {
		return 0, fmt.Errorf("stats: unsupported confidence %v (want 0.90, 0.95 or 0.99)", confidence)
	}
	if dof <= 0 || math.IsInf(dof, 1) || dof > 30 {
		return zTable[confidence], nil
	}
	d := int(dof)
	if d < 1 {
		d = 1
	}
	return row[d-1], nil
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Center float64
	Half   float64 // half-width, >= 0
}

// Lo returns the interval's lower bound.
func (iv Interval) Lo() float64 { return iv.Center - iv.Half }

// Hi returns the interval's upper bound.
func (iv Interval) Hi() float64 { return iv.Center + iv.Half }

// Rel returns the relative half-width |Half/Center| (0 when Center is 0).
func (iv Interval) Rel() float64 {
	if iv.Center == 0 {
		return 0
	}
	return math.Abs(iv.Half / iv.Center)
}

// Covers reports whether x lies within the interval (inclusive).
func (iv Interval) Covers(x float64) bool {
	return x >= iv.Lo() && x <= iv.Hi()
}

// String renders the interval as "center ± half".
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ± %.3g", iv.Center, iv.Half)
}
