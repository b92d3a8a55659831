package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	bp "barrierpoint"
	"barrierpoint/internal/cluster"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/report"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/stats"
)

// Table1 renders the simulated system characteristics (paper Table I).
func (h *Harness) Table1() *report.Table {
	t := report.NewTable("Table I: simulated system characteristics", "Component", "Parameters")
	cfg := h.Machine(8)
	t.AddRow("Processor", fmt.Sprintf("1 and 4 sockets, %d cores per socket", cfg.CoresPerSocket))
	t.AddRow("Core", fmt.Sprintf("%.2f GHz, %d-way issue, %d-entry ROB", cfg.FreqGHz, cfg.IssueWidth, cfg.ROB))
	t.AddRow("Branch predictor", fmt.Sprintf("gshare, %d cycles penalty", cfg.MispredictPenalty))
	t.AddRow("L1-I", fmt.Sprintf("%d KB, %d way, %d cycle access time", cfg.L1I.SizeBytes>>10, cfg.L1I.Ways, cfg.L1I.Latency))
	t.AddRow("L1-D", fmt.Sprintf("%d KB, %d way, %d cycle access time", cfg.L1D.SizeBytes>>10, cfg.L1D.Ways, cfg.L1D.Latency))
	t.AddRow("L2 cache", fmt.Sprintf("%d KB per core, %d way, %d cycle", cfg.L2.SizeBytes>>10, cfg.L2.Ways, cfg.L2.Latency))
	t.AddRow("L3 cache", fmt.Sprintf("%d MB per %d cores, %d way, %d cycle", cfg.L3.SizeBytes>>20, cfg.CoresPerSocket, cfg.L3.Ways, cfg.L3.Latency))
	t.AddRow("Main memory", fmt.Sprintf("%.0f ns access time, %.0f GB/s per socket", cfg.MemLatencyNs, cfg.MemBWGBs))
	return t
}

// Table2 renders the clustering parameters (paper Table II).
func (h *Harness) Table2() *report.Table {
	p := cluster.DefaultParams()
	t := report.NewTable("Table II: SimPoint-style clustering parameters", "Parameter", "Value")
	t.AddRow("-dim (number of projected dimensions)", fmt.Sprintf("%d", p.Dim))
	t.AddRow("-maxK (maximum number of clusters)", fmt.Sprintf("%d", p.MaxK))
	t.AddRow("-fixedLength (clusters are not normalized)", "off")
	t.AddRow("-coveragePct (percent coverage)", fmt.Sprintf("%g (100%%)", p.CoveragePct))
	t.AddRow("BIC threshold", fmt.Sprintf("%g", p.BICThresh))
	return t
}

// Fig1 counts dynamically executed barriers per benchmark at 8 and 32
// threads (paper Figure 1). The barrier count is thread-count independent.
func (h *Harness) Fig1() *report.Table {
	t := report.NewTable("Figure 1: total number of dynamically executed barriers",
		"benchmark", "8 threads", "32 threads")
	for _, b := range h.BenchNames() {
		t.AddRow(b,
			fmt.Sprintf("%d", h.Program(b, 8).Regions()),
			fmt.Sprintf("%d", h.Program(b, 32).Regions()))
	}
	return t
}

// Fig3Data is one per-region sample of the paper's Figure 3.
type Fig3Data struct {
	Region           int
	TimeNs           float64 // region duration in the full simulation
	ActualIPC        float64
	ReconstructedIPC float64
	IsBarrierPoint   bool
}

// Fig3 reproduces the paper's Figure 3 for npb-ft on the 32-core machine:
// per-region aggregate IPC from the full simulation, the IPC series rebuilt
// from barrierpoint representatives, and the selected barrierpoints.
func (h *Harness) Fig3() ([]Fig3Data, *report.Table) {
	const bench, cores = "npb-ft", 32
	full := h.Full(bench, cores)
	a := h.DefaultAnalysis(bench, cores)
	perfect := a.PerfectWarmup(full)

	isBP := make(map[int]bool)
	for _, p := range a.Selection.Points {
		isBP[p.Region] = true
	}
	out := make([]Fig3Data, len(full))
	for i, r := range full {
		rep := perfect[a.Selection.PointFor(i).Region]
		out[i] = Fig3Data{
			Region:           i,
			TimeNs:           r.TimeNs,
			ActualIPC:        r.IPC(),
			ReconstructedIPC: rep.IPC(),
			IsBarrierPoint:   isBP[i],
		}
	}
	t := report.NewTable("Figure 3: npb-ft (32 cores) aggregate IPC, reconstructed IPC, barrierpoints",
		"region", "time (ns)", "IPC", "reconstructed IPC", "barrierpoint")
	for _, d := range out {
		mark := ""
		if d.IsBarrierPoint {
			mark = "*"
		}
		t.AddRow(fmt.Sprintf("%d", d.Region), fmt.Sprintf("%.0f", d.TimeNs),
			fmt.Sprintf("%.2f", d.ActualIPC), fmt.Sprintf("%.2f", d.ReconstructedIPC), mark)
	}
	return out, t
}

// ErrRow is one benchmark's accuracy entry for Figures 4 and 7.
type ErrRow struct {
	Bench     string
	RunErr    [2]float64 // abs runtime % error at 8 and 32 cores
	APKIDelta [2]float64 // abs DRAM APKI difference at 8 and 32 cores
}

// runErr is the paper's accuracy measure: the estimate a reconstructs from
// results against the full simulation of the benchmark, as the absolute
// runtime % error and the absolute DRAM APKI difference.
func (h *Harness) runErr(bench string, cores int, a *bp.Analysis, results map[int]bp.RegionResult) (pct, apki float64) {
	est, err := a.EstimateFrom(results)
	if err != nil {
		panic(fmt.Sprintf("experiments: estimate of %s/%d: %v", bench, cores, err))
	}
	act := bp.ActualFrom(h.Full(bench, cores))
	return stats.AbsPctErr(est.TimeNs, act.TimeNs), math.Abs(est.DRAMAPKI() - act.DRAMAPKI())
}

// errRows measures the default analysis of every benchmark at both core
// counts, from perfect warmup (the full simulation's own region results) or
// from barrierpoints simulated under the harness warmup.
func (h *Harness) errRows(perfect bool) []ErrRow {
	var rows []ErrRow
	for _, b := range h.BenchNames() {
		row := ErrRow{Bench: b}
		for ci, cores := range CoreCounts {
			a := h.DefaultAnalysis(b, cores)
			var results map[int]bp.RegionResult
			if perfect {
				results = a.PerfectWarmup(h.Full(b, cores))
			} else {
				results = h.Points(b, cores, a, h.Warmup)
			}
			row.RunErr[ci], row.APKIDelta[ci] = h.runErr(b, cores, a, results)
		}
		rows = append(rows, row)
	}
	return rows
}

func errTable(title string, rows []ErrRow) *report.Table {
	t := report.NewTable(title,
		"benchmark", "runtime err 8c (%)", "runtime err 32c (%)", "APKI diff 8c", "APKI diff 32c")
	var e8, e32 []float64
	for _, r := range rows {
		t.AddRow(r.Bench,
			fmt.Sprintf("%.2f", r.RunErr[0]), fmt.Sprintf("%.2f", r.RunErr[1]),
			fmt.Sprintf("%.3f", r.APKIDelta[0]), fmt.Sprintf("%.3f", r.APKIDelta[1]))
		e8 = append(e8, r.RunErr[0])
		e32 = append(e32, r.RunErr[1])
	}
	all := append(append([]float64(nil), e8...), e32...)
	t.AddRow("average", fmt.Sprintf("%.2f", stats.Mean(e8)), fmt.Sprintf("%.2f", stats.Mean(e32)), "", "")
	t.AddRow("overall avg / max",
		fmt.Sprintf("%.2f", stats.Mean(all)), fmt.Sprintf("%.2f", stats.Max(all)), "", "")
	return t
}

// Fig4 evaluates barrierpoint selection with perfect warmup (paper Fig. 4):
// absolute runtime prediction error and absolute DRAM APKI difference.
func (h *Harness) Fig4() ([]ErrRow, *report.Table) {
	rows := h.errRows(true)
	return rows, errTable("Figure 4: prediction error with perfect warmup", rows)
}

// Fig7 is Fig4 with the §IV warmup technique instead of perfect warmup
// (paper Fig. 7).
func (h *Harness) Fig7() ([]ErrRow, *report.Table) {
	rows := h.errRows(false)
	return rows, errTable(fmt.Sprintf("Figure 7: prediction error with %s warmup", h.Warmup), rows)
}

// ScaleFactors are the workload scales ScaleError measures, as multiples of
// the harness scale.
var ScaleFactors = []float64{1, 0.5, 0.2}

// ScaleErrRow is one benchmark and core count's runtime error at each of
// the ScaleFactors.
type ScaleErrRow struct {
	Bench     string
	Cores     int
	Selection []float64 // abs runtime % error with perfect warmup (Fig. 4)
	Total     []float64 // abs runtime % error with the harness warmup (Fig. 7)
}

// ScaleError splits runtime error at shrinking workload scales into a
// selection part (the perfect-warmup error) and a warmup part (the harness
// warmup's error minus the selection part).
func (h *Harness) ScaleError() ([]ScaleErrRow, *report.Table) {
	var rows []ScaleErrRow
	headers := []string{"benchmark", "cores"}
	for fi, f := range ScaleFactors {
		x := h
		if f != 1 {
			x = New(h.Scale * f)
			x.Warmup, x.Benches = h.Warmup, h.Benches
		}
		headers = append(headers, fmt.Sprintf("selection x%.3g", x.Scale), fmt.Sprintf("warmup x%.3g", x.Scale))
		sel, tot := x.errRows(true), x.errRows(false)
		for i := range len(sel) * len(CoreCounts) {
			b, ci := i/len(CoreCounts), i%len(CoreCounts)
			if fi == 0 {
				rows = append(rows, ScaleErrRow{Bench: sel[b].Bench, Cores: CoreCounts[ci]})
			}
			rows[i].Selection = append(rows[i].Selection, sel[b].RunErr[ci])
			rows[i].Total = append(rows[i].Total, tot[b].RunErr[ci])
		}
	}
	t := report.NewTable(fmt.Sprintf("Scale error: abs runtime %% error from selection (perfect warmup) and from %s warmup", h.Warmup), headers...)
	cols := make([][]float64, 2*len(ScaleFactors))
	for _, r := range rows {
		cells := []string{r.Bench, fmt.Sprintf("%d", r.Cores)}
		for fi := range ScaleFactors {
			for k, v := range []float64{r.Selection[fi], r.Total[fi] - r.Selection[fi]} {
				cols[2*fi+k] = append(cols[2*fi+k], v)
				cells = append(cells, fmt.Sprintf("%.2f", v))
			}
		}
		t.AddRow(cells...)
	}
	avg := []string{"average", ""}
	for _, c := range cols {
		avg = append(avg, fmt.Sprintf("%.2f", stats.Mean(c)))
	}
	t.AddRow(avg...)
	return rows, t
}

// ClusterErrRow is one cluster of a benchmark's default selection against
// the full simulation: how alike its members are, how typical its
// representative is, and how much of the perfect-warmup error it makes.
type ClusterErrRow struct {
	Bench      string
	Cores      int
	Cluster    cluster.Cluster
	Signatures int     // distinct signatures among the members
	RepRank    int     // the representative's occurrence among members with its signature (1 = first)
	RepNs      float64 // representative ns per instruction
	MeanNs     float64 // Σ member ns / Σ member instructions
	ErrShare   float64 // |rep ns × multiplier − Σ member ns| / Σ all ns, in %
}

// ClusterError breaks the Fig. 4 error of every benchmark and core count
// down by cluster, worst cluster first.
func (h *Harness) ClusterError() ([]ClusterErrRow, *report.Table) {
	t := report.NewTable("Cluster error: per-cluster share of the perfect-warmup runtime error",
		"benchmark", "cores", "cluster", "members", "signatures", "rep", "rep rank",
		"rep ns/instr", "cluster ns/instr", "error share (%)")
	var rows []ClusterErrRow
	for _, b := range h.BenchNames() {
		for _, cores := range CoreCounts {
			full := h.Full(b, cores)
			total := bp.ActualFrom(full).TimeNs
			svs, _ := signature.BuildAll(h.Profiles(b, cores), bp.DefaultConfig().Signature)
			var cell []ClusterErrRow
			for _, c := range h.DefaultAnalysis(b, cores).Selection.Clusters() {
				rep := c.Point.Region
				r := ClusterErrRow{Bench: b, Cores: cores, Cluster: c, RepNs: full[rep].TimeNs / float64(full[rep].Counters.Instrs)}
				var ns, instrs float64
				var seen []signature.SV
				for _, m := range c.Members {
					ns += full[m].TimeNs
					instrs += float64(full[m].Counters.Instrs)
					if !slices.ContainsFunc(seen, func(sv signature.SV) bool { return slices.Equal(sv, svs[m]) }) {
						seen = append(seen, svs[m])
					}
					if m <= rep && slices.Equal(svs[m], svs[rep]) {
						r.RepRank++
					}
				}
				r.Signatures, r.MeanNs = len(seen), ns/instrs
				r.ErrShare = 100 * math.Abs(full[rep].TimeNs*c.Point.Multiplier-ns) / total
				cell = append(cell, r)
			}
			sort.SliceStable(cell, func(i, j int) bool { return cell[i].ErrShare > cell[j].ErrShare })
			for _, r := range cell {
				t.AddRow(b, fmt.Sprintf("%d", cores), fmt.Sprintf("%d", r.Cluster.Point.Cluster),
					fmt.Sprintf("%d", len(r.Cluster.Members)), fmt.Sprintf("%d", r.Signatures),
					fmt.Sprintf("%d", r.Cluster.Point.Region), fmt.Sprintf("%d", r.RepRank),
					fmt.Sprintf("%.4f", r.RepNs), fmt.Sprintf("%.4f", r.MeanNs), fmt.Sprintf("%.2f", r.ErrShare))
			}
			rows = append(rows, cell...)
		}
	}
	return rows, t
}

// Fig5Variants are the signature configurations of the paper's Figure 5.
var Fig5Variants = []bp.SignatureOptions{
	{Kind: signature.BBVOnly},
	{Kind: signature.LDVOnly},
	{Kind: signature.LDVOnly, LDVWeightV: 2},
	{Kind: signature.LDVOnly, LDVWeightV: 5},
	{Kind: signature.Combined},
	{Kind: signature.Combined, LDVWeightV: 2},
	{Kind: signature.Combined, LDVWeightV: 5},
}

// Fig5MaxKs are the cluster count caps swept in the paper's Figure 5.
var Fig5MaxKs = []int{1, 5, 10, 20}

// Fig5 sweeps similarity metric and maxK, reporting the average absolute
// runtime prediction error across benchmarks and core counts with perfect
// warmup (paper Fig. 5).
func (h *Harness) Fig5() *report.Table {
	headers := []string{"variant"}
	for _, k := range Fig5MaxKs {
		headers = append(headers, fmt.Sprintf("maxK=%d", k))
	}
	t := report.NewTable("Figure 5: avg abs runtime error (%) by similarity metric and maxK", headers...)
	for _, v := range Fig5Variants {
		row := []string{v.Label()}
		for _, maxK := range Fig5MaxKs {
			cfg := bp.DefaultConfig()
			cfg.Signature = v
			cfg.Cluster.MaxK = maxK
			var errs []float64
			for _, b := range h.BenchNames() {
				for _, cores := range CoreCounts {
					a := h.Analysis(b, cores, cfg)
					e, _ := h.runErr(b, cores, a, a.PerfectWarmup(h.Full(b, cores)))
					errs = append(errs, e)
				}
			}
			row = append(row, fmt.Sprintf("%.2f", stats.Mean(errs)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig6 cross-validates barrierpoints across core counts (paper Fig. 6):
// regions selected from X-core signatures predict the Y-core machine.
func (h *Harness) Fig6() *report.Table {
	t := report.NewTable("Figure 6: barrierpoint selection cross-validation (abs runtime % error)",
		"benchmark", "8c using 8c SVs", "8c using 32c SVs", "32c using 8c SVs", "32c using 32c SVs")
	for _, b := range h.BenchNames() {
		row := []string{b}
		for _, simCores := range CoreCounts {
			for _, svCores := range CoreCounts {
				// Transfer the svCores selection to the simulated machine's
				// region weights.
				transferred := &bp.Analysis{
					Program:   h.Program(b, simCores),
					Config:    bp.DefaultConfig(),
					Selection: cluster.Rebind(h.DefaultAnalysis(b, svCores).Selection, profile.Weights(h.Profiles(b, simCores))),
				}
				e, _ := h.runErr(b, simCores, transferred, transferred.PerfectWarmup(h.Full(b, simCores)))
				row = append(row, fmt.Sprintf("%.2f", e))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Table3 lists, per benchmark and core count, the total barrier count,
// significant barrierpoints with their multipliers, and the insignificant
// barrierpoint summary (paper Table III).
func (h *Harness) Table3() *report.Table {
	t := report.NewTable("Table III: selected barrierpoints and multipliers",
		"application", "cores", "barriers", "significant bps", "insig: n/mult/weight", "barrierpoints (multiplier)")
	for _, b := range h.BenchNames() {
		for _, cores := range CoreCounts {
			a := h.DefaultAnalysis(b, cores)
			sig, insig := a.Selection.Significant()
			var insigMult, insigW float64
			for _, p := range insig {
				insigMult += p.Multiplier
				insigW += p.Weight
			}
			var bps []string
			for _, p := range sig {
				bps = append(bps, fmt.Sprintf("%d (%.1f)", p.Region, p.Multiplier))
			}
			t.AddRow(b, fmt.Sprintf("%d", cores),
				fmt.Sprintf("%d", h.Program(b, cores).Regions()),
				fmt.Sprintf("%d", len(sig)),
				fmt.Sprintf("%d / %.1f / %.1e", len(insig), insigMult, insigW),
				strings.Join(bps, " "))
		}
	}
	return t
}

// Fig8Row is one benchmark's relative scaling entry.
type Fig8Row struct {
	Bench     string
	Actual    float64 // measured 8-core time / 32-core time
	Predicted float64 // BarrierPoint-estimated ratio
}

// Fig8 compares actual and BarrierPoint-predicted 8→32-core speedups
// (paper Fig. 8). Estimates use the harness warmup mode end to end.
func (h *Harness) Fig8() ([]Fig8Row, *report.Table) {
	var rows []Fig8Row
	t := report.NewTable("Figure 8: relative scaling, 8-core vs 32-core speedup",
		"benchmark", "actual", "predicted")
	for _, b := range h.BenchNames() {
		var est, act [2]float64
		for ci, cores := range CoreCounts {
			a := h.DefaultAnalysis(b, cores)
			e, err := a.EstimateFrom(h.Points(b, cores, a, h.Warmup))
			if err != nil {
				panic(err)
			}
			est[ci] = e.TimeNs
			act[ci] = bp.ActualFrom(h.Full(b, cores)).TimeNs
		}
		r := Fig8Row{Bench: b, Actual: act[0] / act[1], Predicted: est[0] / est[1]}
		rows = append(rows, r)
		t.AddRow(b, fmt.Sprintf("%.2f", r.Actual), fmt.Sprintf("%.2f", r.Predicted))
	}
	return rows, t
}

// Fig9Row is one benchmark+cores simulation speedup entry.
type Fig9Row struct {
	Bench             string
	Cores             int
	SerialSpeedup     float64
	ParallelSpeedup   float64
	ResourceReduction float64
}

// Fig9 reports the serial and parallel simulation speedups and the machine
// resource reduction of the BarrierPoint methodology (paper Fig. 9 and the
// 78× resource claim).
func (h *Harness) Fig9() ([]Fig9Row, *report.Table) {
	var rows []Fig9Row
	t := report.NewTable("Figure 9: simulation speedups (instruction count reduction)",
		"benchmark", "cores", "serial speedup", "parallel speedup", "resource reduction")
	var serial, parallel, res []float64
	for _, b := range h.BenchNames() {
		for _, cores := range CoreCounts {
			a := h.DefaultAnalysis(b, cores)
			r := Fig9Row{
				Bench:             b,
				Cores:             cores,
				SerialSpeedup:     a.SerialSpeedup(),
				ParallelSpeedup:   a.ParallelSpeedup(),
				ResourceReduction: a.ResourceReduction(),
			}
			rows = append(rows, r)
			serial = append(serial, r.SerialSpeedup)
			parallel = append(parallel, r.ParallelSpeedup)
			res = append(res, r.ResourceReduction)
			t.AddRow(b, fmt.Sprintf("%d", cores),
				fmt.Sprintf("%.1f", r.SerialSpeedup),
				fmt.Sprintf("%.1f", r.ParallelSpeedup),
				fmt.Sprintf("%.1f", r.ResourceReduction))
		}
	}
	t.AddRow("harmonic mean", "",
		fmt.Sprintf("%.1f", stats.HarmonicMean(serial)),
		fmt.Sprintf("%.1f", stats.HarmonicMean(parallel)), "")
	t.AddRow("max", "",
		fmt.Sprintf("%.1f", stats.Max(serial)),
		fmt.Sprintf("%.1f", stats.Max(parallel)), "")
	t.AddRow("avg resource reduction", "", "", "",
		fmt.Sprintf("%.1f", stats.Mean(res)))
	return rows, t
}

// AblationScaling quantifies the value of instruction-count scaling in the
// reconstruction (paper §VI-A: 0.6% → 19.4% error without it).
func (h *Harness) AblationScaling() *report.Table {
	t := report.NewTable("Ablation: reconstruction with and without multiplier scaling (abs runtime % error, perfect warmup)",
		"benchmark", "cores", "scaled", "unscaled")
	var sc, un []float64
	for _, b := range h.BenchNames() {
		for _, cores := range CoreCounts {
			a := h.DefaultAnalysis(b, cores)
			perfect := a.PerfectWarmup(h.Full(b, cores))
			// Unit region weights make every multiplier its cluster's member
			// count.
			unscaled := *a
			unscaled.Selection = cluster.Rebind(a.Selection, slices.Repeat([]float64{1}, len(a.Selection.RegionWeights)))
			e1, _ := h.runErr(b, cores, a, perfect)
			e2, _ := h.runErr(b, cores, &unscaled, perfect)
			sc, un = append(sc, e1), append(un, e2)
			t.AddRow(b, fmt.Sprintf("%d", cores), fmt.Sprintf("%.2f", e1), fmt.Sprintf("%.2f", e2))
		}
	}
	t.AddRow("average", "", fmt.Sprintf("%.2f", stats.Mean(sc)), fmt.Sprintf("%.2f", stats.Mean(un)))
	return t
}

// AblationThreads compares per-thread concatenation against summation when
// combining multi-threaded signature vectors (paper §III-A4).
func (h *Harness) AblationThreads() *report.Table {
	t := report.NewTable("Ablation: per-thread SV concatenation vs summation (abs runtime % error, perfect warmup)",
		"benchmark", "cores", "concat", "sum")
	var ce, se []float64
	for _, b := range h.BenchNames() {
		for _, cores := range CoreCounts {
			var errs [2]float64
			for vi, sum := range []bool{false, true} {
				cfg := bp.DefaultConfig()
				cfg.Signature.SumThreads = sum
				a := h.Analysis(b, cores, cfg)
				errs[vi], _ = h.runErr(b, cores, a, a.PerfectWarmup(h.Full(b, cores)))
			}
			ce, se = append(ce, errs[0]), append(se, errs[1])
			t.AddRow(b, fmt.Sprintf("%d", cores), fmt.Sprintf("%.2f", errs[0]), fmt.Sprintf("%.2f", errs[1]))
		}
	}
	t.AddRow("average", "", fmt.Sprintf("%.2f", stats.Mean(ce)), fmt.Sprintf("%.2f", stats.Mean(se)))
	return t
}

// AblationWarmup compares warmup strategies end to end.
func (h *Harness) AblationWarmup() *report.Table {
	t := report.NewTable("Ablation: warmup strategies (abs runtime % error)",
		"benchmark", "cores", "perfect", "cold", "mru", "mru+prev")
	sums := make([][]float64, 4)
	for _, b := range h.BenchNames() {
		for _, cores := range CoreCounts {
			a := h.DefaultAnalysis(b, cores)
			row := []string{b, fmt.Sprintf("%d", cores)}
			for mi, results := range []map[int]bp.RegionResult{
				a.PerfectWarmup(h.Full(b, cores)),
				h.Points(b, cores, a, bp.ColdWarmup),
				h.Points(b, cores, a, bp.MRUWarmup),
				h.Points(b, cores, a, bp.MRUPrevWarmup),
			} {
				e, _ := h.runErr(b, cores, a, results)
				sums[mi] = append(sums[mi], e)
				row = append(row, fmt.Sprintf("%.2f", e))
			}
			t.AddRow(row...)
		}
	}
	avg := []string{"average", ""}
	for _, s := range sums {
		avg = append(avg, fmt.Sprintf("%.2f", stats.Mean(s)))
	}
	t.AddRow(avg...)
	return t
}
