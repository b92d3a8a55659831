package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if Mean(xs) != 7.0/3 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	want := 3.0 / (1 + 0.5 + 0.25)
	if math.Abs(HarmonicMean(xs)-want) > 1e-12 {
		t.Errorf("HarmonicMean = %v, want %v", HarmonicMean(xs), want)
	}
	if Mean(nil) != 0 || HarmonicMean(nil) != 0 {
		t.Error("empty means not zero")
	}
	if HarmonicMean([]float64{1, 0}) != 0 {
		t.Error("harmonic mean with zero entry should be 0")
	}
}

func TestHarmonicLEArithmetic(t *testing.T) {
	f := func(raw []uint16) bool {
		var xs []float64
		for _, r := range raw {
			xs = append(xs, float64(r)+1)
		}
		if len(xs) == 0 {
			return true
		}
		return HarmonicMean(xs) <= Mean(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{5, 1, 9, 3}
	if Max(xs) != 9 {
		t.Errorf("Max = %v", Max(xs))
	}
	if Max(nil) != 0 {
		t.Error("empty max not zero")
	}
}

func TestAbsPctErr(t *testing.T) {
	if AbsPctErr(110, 100) != 10 {
		t.Errorf("AbsPctErr = %v", AbsPctErr(110, 100))
	}
	if AbsPctErr(90, 100) != 10 {
		t.Errorf("AbsPctErr = %v", AbsPctErr(90, 100))
	}
	if AbsPctErr(0, 0) != 0 {
		t.Error("0/0 should be 0")
	}
	if !math.IsInf(AbsPctErr(1, 0), 1) {
		t.Error("x/0 should be +Inf")
	}
}
