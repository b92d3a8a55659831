// Package reconstruct implements whole-program runtime reconstruction
// (paper §III-D): given detailed simulation results for the selected
// barrierpoints and their multipliers, additive metrics extrapolate as
// metric_app = Σ_j metric_j · mult_j, and derived metrics (APKI, IPC) are
// recomputed from the extrapolated numerators and denominators.
package reconstruct

import (
	"fmt"

	"barrierpoint/internal/cluster"
	"barrierpoint/internal/sim"
)

// Estimate is a reconstructed whole-program prediction.
type Estimate struct {
	Cycles   float64 // estimated total execution cycles
	TimeNs   float64 // estimated total execution time
	Instrs   float64 // estimated aggregate instruction count
	DRAMAccs float64 // estimated DRAM transfers
	L3Misses float64
	L2Misses float64
	L1DAccs  float64
}

// DRAMAPKI returns estimated DRAM accesses per kilo-instruction.
func (e Estimate) DRAMAPKI() float64 {
	if e.Instrs == 0 {
		return 0
	}
	return 1000 * e.DRAMAccs / e.Instrs
}

// IPC returns estimated aggregate instructions per cycle.
func (e Estimate) IPC() float64 {
	if e.Cycles == 0 {
		return 0
	}
	return e.Instrs / e.Cycles
}

// Metrics are a region's additive metrics in Estimate field order: the one
// list of what reconstruction sums.
type Metrics [7]float64

// Of returns r's additive metrics.
func Of(r sim.RegionResult) Metrics {
	return Metrics{
		float64(r.Cycles),
		r.TimeNs,
		float64(r.Counters.Instrs),
		float64(r.Counters.DRAMAccs),
		float64(r.Counters.L3Misses),
		float64(r.Counters.L2Misses),
		float64(r.Counters.L1DAccesses),
	}
}

// Estimate returns v as the Estimate of the same metrics.
func (v Metrics) Estimate() Estimate {
	return Estimate{
		Cycles: v[0], TimeNs: v[1], Instrs: v[2], DRAMAccs: v[3],
		L3Misses: v[4], L2Misses: v[5], L1DAccs: v[6],
	}
}

// Reconstruct reconstructs whole-program metrics from barrierpoint results,
// summed in selection order. bpResults maps representative region index →
// its detailed simulation.
func Reconstruct(sel *cluster.Result, bpResults map[int]sim.RegionResult) (Estimate, error) {
	var sum Metrics
	for _, p := range sel.Points {
		r, ok := bpResults[p.Region]
		if !ok {
			return Estimate{}, fmt.Errorf("reconstruct: missing simulation result for barrierpoint region %d", p.Region)
		}
		for k, v := range Of(r) {
			sum[k] += v * p.Multiplier
		}
	}
	return sum.Estimate(), nil
}

// Actual sums ground-truth per-region results into the same Estimate shape
// for error computation.
func Actual(results []sim.RegionResult) Estimate {
	var sum Metrics
	for _, r := range results {
		for k, v := range Of(r) {
			sum[k] += v
		}
	}
	return sum.Estimate()
}

// PerfectWarmupResults extracts barrierpoint results from a full detailed
// simulation: the paper's "perfect warmup" evaluation mode (§VI-A), which
// isolates selection error from warmup error.
func PerfectWarmupResults(sel *cluster.Result, full []sim.RegionResult) map[int]sim.RegionResult {
	out := make(map[int]sim.RegionResult, len(sel.Points))
	for _, p := range sel.Points {
		out[p.Region] = full[p.Region]
	}
	return out
}
