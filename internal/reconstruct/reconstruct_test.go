package reconstruct

import (
	"math"
	"testing"

	"barrierpoint/internal/cluster"
	"barrierpoint/internal/sim"
)

func mkResult(cycles uint64, instrs, dram uint64) sim.RegionResult {
	return sim.RegionResult{
		Cycles: cycles,
		TimeNs: float64(cycles) / 2.0,
		Counters: sim.Counters{
			Instrs:   instrs,
			DRAMAccs: dram,
			L3Misses: dram,
		},
	}
}

func TestReconstructExactWhenAllRegionsSelected(t *testing.T) {
	// Every region its own cluster: reconstruction equals the sum.
	full := []sim.RegionResult{
		mkResult(100, 1000, 5),
		mkResult(250, 2000, 9),
		mkResult(50, 400, 1),
	}
	sel := &cluster.Result{
		K:          3,
		Assignment: []int{0, 1, 2},
		Points: []cluster.BarrierPoint{
			{Region: 0, Cluster: 0, Multiplier: 1},
			{Region: 1, Cluster: 1, Multiplier: 1},
			{Region: 2, Cluster: 2, Multiplier: 1},
		},
	}
	est, err := Reconstruct(sel, PerfectWarmupResults(sel, full))
	if err != nil {
		t.Fatal(err)
	}
	act := Actual(full)
	if est != act {
		t.Errorf("exact reconstruction differs: %+v vs %+v", est, act)
	}
}

func TestReconstructScalesByMultiplier(t *testing.T) {
	full := []sim.RegionResult{
		mkResult(100, 1000, 4),
		mkResult(100, 1000, 4),
		mkResult(100, 1000, 4),
	}
	sel := &cluster.Result{
		K:          1,
		Assignment: []int{0, 0, 0},
		Points:     []cluster.BarrierPoint{{Region: 1, Cluster: 0, Multiplier: 3}},
	}
	est, err := Reconstruct(sel, PerfectWarmupResults(sel, full))
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles != 300 || est.Instrs != 3000 || est.DRAMAccs != 12 {
		t.Errorf("scaled reconstruction wrong: %+v", est)
	}
}

func TestReconstructMissingResult(t *testing.T) {
	sel := &cluster.Result{
		Assignment: []int{0},
		Points:     []cluster.BarrierPoint{{Region: 0, Multiplier: 1}},
	}
	if _, err := Reconstruct(sel, map[int]sim.RegionResult{}); err == nil {
		t.Error("missing result not reported")
	}
}

func TestReconstructUnscaled(t *testing.T) {
	// Two regions of very different lengths in one cluster: the unscaled
	// variant uses the member count (2) instead of the instruction-ratio
	// multiplier.
	full := []sim.RegionResult{
		mkResult(100, 1000, 0),
		mkResult(400, 4000, 0),
	}
	sel := &cluster.Result{
		K:          1,
		Assignment: []int{0, 0},
		Points:     []cluster.BarrierPoint{{Region: 0, Cluster: 0, Multiplier: 5}},
	}
	scaled, err := Reconstruct(sel, PerfectWarmupResults(sel, full))
	if err != nil {
		t.Fatal(err)
	}
	unscaled, err := ReconstructUnscaled(sel, PerfectWarmupResults(sel, full))
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Cycles != 500 {
		t.Errorf("scaled cycles = %v, want 500", scaled.Cycles)
	}
	if unscaled.Cycles != 200 {
		t.Errorf("unscaled cycles = %v, want 200 (2 members x 100)", unscaled.Cycles)
	}
	// The scaled estimate is exact for the aggregate; the unscaled one is
	// off by 2.5x here.
	if math.Abs(scaled.Cycles-500) > 1e-9 && math.Abs(unscaled.Cycles-500) < math.Abs(scaled.Cycles-500) {
		t.Error("unscaled unexpectedly better")
	}
}

func TestEstimateDerivedMetrics(t *testing.T) {
	e := Estimate{Cycles: 1000, Instrs: 4000, DRAMAccs: 8}
	if e.IPC() != 4 {
		t.Errorf("IPC = %v", e.IPC())
	}
	if e.DRAMAPKI() != 2 {
		t.Errorf("APKI = %v", e.DRAMAPKI())
	}
	var zero Estimate
	if zero.IPC() != 0 || zero.DRAMAPKI() != 0 {
		t.Error("zero estimate metrics not zero")
	}
}

func TestActualSums(t *testing.T) {
	full := []sim.RegionResult{mkResult(10, 100, 1), mkResult(20, 200, 2)}
	a := Actual(full)
	if a.Cycles != 30 || a.Instrs != 300 || a.DRAMAccs != 3 {
		t.Errorf("Actual = %+v", a)
	}
}
