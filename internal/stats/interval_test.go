package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestVarianceAndStdErr(t *testing.T) {
	// Hand-computed: xs = {2, 4, 4, 4, 5, 5, 7, 9}, mean 5, sample var 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got, want := Variance(xs), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Error("Variance of <2 samples should be 0")
	}
}

func TestVarianceShiftInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		shifted := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			shifted[i] = xs[i] + 1e6
		}
		v, sv := Variance(xs), Variance(shifted)
		if math.Abs(v-sv) > 1e-6*(1+v) {
			t.Fatalf("trial %d: variance not shift invariant: %v vs %v", trial, v, sv)
		}
	}
}

func TestTCritical(t *testing.T) {
	cases := []struct {
		dof, conf, want float64
	}{
		{1, 0.95, 12.706},
		{2, 0.95, 4.303},
		{9, 0.95, 2.262},
		{30, 0.95, 2.042},
		{31, 0.95, 1.960},  // beyond the table: normal quantile
		{1e9, 0.95, 1.960}, // asymptotic
		{0, 0.95, 1.960},   // proxy variance, no measured samples
		{2.9, 0.95, 4.303}, // fractional dof rounds down (conservative)
		{5, 0.90, 2.015},
		{5, 0.99, 4.032},
	}
	for _, c := range cases {
		got, err := TCritical(c.dof, c.conf)
		if err != nil {
			t.Fatalf("TCritical(%v, %v): %v", c.dof, c.conf, err)
		}
		if got != c.want {
			t.Errorf("TCritical(%v, %v) = %v, want %v", c.dof, c.conf, got, c.want)
		}
	}
	if _, err := TCritical(5, 0.85); err == nil {
		t.Error("unsupported confidence accepted")
	}
}

func TestTCriticalMonotoneInDof(t *testing.T) {
	prev := math.Inf(1)
	for dof := 1.0; dof <= 35; dof++ {
		c, err := TCritical(dof, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if c > prev {
			t.Fatalf("TCritical not non-increasing at dof=%v: %v > %v", dof, c, prev)
		}
		prev = c
	}
}

func TestIntervalRelZeroCenter(t *testing.T) {
	iv := Interval{Center: 10, Half: 1.131}
	if !iv.Covers(10) || !iv.Covers(iv.Lo()) || !iv.Covers(iv.Hi()) {
		t.Error("interval must cover its center and bounds")
	}
	if iv.Covers(iv.Hi() + 1e-9) {
		t.Error("interval covers a point above its upper bound")
	}
	if got := iv.Rel(); math.Abs(got-iv.Half/10) > 1e-15 {
		t.Errorf("Rel = %v", got)
	}
	if (Interval{Center: 0, Half: 3}).Rel() != 0 {
		t.Error("Rel of zero-centered interval should be 0")
	}
}

func TestWeightedSumVarianceExact(t *testing.T) {
	v, err := WeightedSumVariance([]float64{2, 3}, []float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := 4.0*1 + 9*4; v != want {
		t.Errorf("WeightedSumVariance = %v, want %v", v, want)
	}
	if _, err := WeightedSumVariance([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

// TestWeightedSumVariancePropertyMonteCarlo quick-checks the propagation
// formula against a naive Monte Carlo estimate: draw independent gaussians
// X_i ~ N(mu_i, var_i), form Σ w_i·X_i many times, and compare the empirical
// variance of the sums with the propagated one. Randomized but fully
// deterministic (fixed seed), so a failure is reproducible.
func TestWeightedSumVariancePropertyMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const samples = 200_000
	for trial := 0; trial < 8; trial++ {
		k := 1 + rng.Intn(6)
		ws := make([]float64, k)
		vars := make([]float64, k)
		mus := make([]float64, k)
		for i := 0; i < k; i++ {
			ws[i] = rng.Float64()*4 - 2 // include negative weights
			sd := rng.Float64()*3 + 0.1
			vars[i] = sd * sd
			mus[i] = rng.Float64() * 10
		}
		want, err := WeightedSumVariance(ws, vars)
		if err != nil {
			t.Fatal(err)
		}

		sums := make([]float64, samples)
		for s := 0; s < samples; s++ {
			var total float64
			for i := 0; i < k; i++ {
				total += ws[i] * (mus[i] + rng.NormFloat64()*math.Sqrt(vars[i]))
			}
			sums[s] = total
		}
		got := Variance(sums)
		// Var of a sample variance is ~2σ⁴/n; 5 sigma on 200k samples is
		// well under 2% relative. Allow 3%.
		if want > 0 && math.Abs(got-want)/want > 0.03 {
			t.Errorf("trial %d (k=%d): Monte Carlo variance %v vs propagated %v", trial, k, got, want)
		}
	}
}
