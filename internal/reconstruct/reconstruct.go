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

// Estimate reconstructs whole-program metrics from barrierpoint results.
// bpResults maps representative region index → its detailed simulation.
func Reconstruct(sel *cluster.Result, bpResults map[int]sim.RegionResult) (Estimate, error) {
	var est Estimate
	for _, p := range sel.Points {
		r, ok := bpResults[p.Region]
		if !ok {
			return Estimate{}, fmt.Errorf("reconstruct: missing simulation result for barrierpoint region %d", p.Region)
		}
		m := p.Multiplier
		est.Cycles += float64(r.Cycles) * m
		est.TimeNs += r.TimeNs * m
		est.Instrs += float64(r.Counters.Instrs) * m
		est.DRAMAccs += float64(r.Counters.DRAMAccs) * m
		est.L3Misses += float64(r.Counters.L3Misses) * m
		est.L2Misses += float64(r.Counters.L2Misses) * m
		est.L1DAccs += float64(r.Counters.L1DAccesses) * m
	}
	return est, nil
}

// ReconstructUnscaled is the ablation of §VI-A: multipliers are replaced by
// raw cluster member counts, ignoring instruction-count scaling. The paper
// reports average error growing from 0.6% to 19.4% without scaling.
func ReconstructUnscaled(sel *cluster.Result, bpResults map[int]sim.RegionResult) (Estimate, error) {
	counts := make(map[int]float64)
	for _, c := range sel.Assignment {
		counts[c]++
	}
	scaled := &cluster.Result{
		K:          sel.K,
		Assignment: sel.Assignment,
	}
	for _, p := range sel.Points {
		q := p
		q.Multiplier = counts[p.Cluster]
		scaled.Points = append(scaled.Points, q)
	}
	return Reconstruct(scaled, bpResults)
}

// Actual sums ground-truth per-region results into the same Estimate shape
// for error computation.
func Actual(results []sim.RegionResult) Estimate {
	var est Estimate
	for _, r := range results {
		est.Cycles += float64(r.Cycles)
		est.TimeNs += r.TimeNs
		est.Instrs += float64(r.Counters.Instrs)
		est.DRAMAccs += float64(r.Counters.DRAMAccs)
		est.L3Misses += float64(r.Counters.L3Misses)
		est.L2Misses += float64(r.Counters.L2Misses)
		est.L1DAccs += float64(r.Counters.L1DAccesses)
	}
	return est
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
