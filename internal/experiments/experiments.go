package experiments

import (
	"fmt"
	"math"
	"strings"

	bp "barrierpoint"
	"barrierpoint/internal/campaign"
	"barrierpoint/internal/cluster"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/report"
	"barrierpoint/internal/service"
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
	for _, p := range a.BarrierPoints() {
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

// AccuracySpec is the campaign spec whose grid is the paper's accuracy
// evaluation (Figs. 4 and 7): every benchmark of the harness crossed with
// the Table I core counts, under one warmup mode ("perfect" for Fig. 4,
// the §IV technique for Fig. 7).
func (h *Harness) AccuracySpec(warmup string) campaign.Spec {
	return campaign.Spec{
		Name:      "paper-accuracy-" + warmup,
		Workloads: h.BenchNames(),
		Threads:   CoreCounts,
		Warmups:   []string{warmup},
		Scale:     h.Scale,
	}
}

// errRows computes runtime error and APKI difference per benchmark by
// expanding the accuracy campaign spec and running its grid against the
// in-memory harness — the same cells bpcamp would dispatch through the
// service tier, minus the store.
func (h *Harness) errRows(mode bp.WarmupMode, perfect bool) []ErrRow {
	warmup := mode.String()
	if perfect {
		warmup = campaign.WarmupPerfect
	}
	outcomes, err := campaign.RunGrid(h.AccuracySpec(warmup), harnessRunner{h})
	if err != nil {
		panic(err)
	}
	// Expand order is workloads outermost, threads inner, so each
	// benchmark's cells arrive contiguously in CoreCounts order.
	var rows []ErrRow
	for i, o := range outcomes {
		ci := i % len(CoreCounts)
		if ci == 0 {
			rows = append(rows, ErrRow{Bench: o.Cell.Workload})
		}
		row := &rows[len(rows)-1]
		row.RunErr[ci] = o.Result.RunErrPct
		row.APKIDelta[ci] = o.Result.APKIDelta
	}
	return rows
}

// harnessRunner adapts the in-memory Harness to campaign.CellRunner: the
// full simulation is the harness' cached ground truth, and "perfect"
// warmup estimates from its region results directly.
type harnessRunner struct{ h *Harness }

// RunCell implements campaign.CellRunner.
func (r harnessRunner) RunCell(c campaign.Cell) (campaign.CellResult, error) {
	h := r.h
	cfg, err := service.ParseSignature(c.Signature)
	if err != nil {
		return campaign.CellResult{}, err
	}
	full := h.Full(c.Workload, c.Threads)
	a := h.Analysis(c.Workload, c.Threads, cfg)
	var results map[int]bp.RegionResult
	if c.Warmup == campaign.WarmupPerfect {
		results = a.PerfectWarmup(full)
	} else {
		mode, err := bp.ParseWarmup(c.Warmup)
		if err != nil {
			return campaign.CellResult{}, err
		}
		results = h.Points(c.Workload, c.Threads, a, mode, "default")
	}
	est, err := a.EstimateFrom(results)
	if err != nil {
		return campaign.CellResult{}, err
	}
	act := bp.ActualFrom(full)
	return campaign.CellResult{
		EstTimeNs:       est.TimeNs,
		ActTimeNs:       act.TimeNs,
		EstAPKI:         est.DRAMAPKI(),
		ActAPKI:         act.DRAMAPKI(),
		RunErrPct:       stats.AbsPctErr(est.TimeNs, act.TimeNs),
		APKIDelta:       math.Abs(est.DRAMAPKI() - act.DRAMAPKI()),
		SerialSpeedup:   a.SerialSpeedup(),
		ParallelSpeedup: a.ParallelSpeedup(),
	}, nil
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
	rows := h.errRows(0, true)
	return rows, errTable("Figure 4: prediction error with perfect warmup", rows)
}

// Fig7 is Fig4 with the §IV warmup technique instead of perfect warmup
// (paper Fig. 7).
func (h *Harness) Fig7() ([]ErrRow, *report.Table) {
	rows := h.errRows(h.Warmup, false)
	return rows, errTable(fmt.Sprintf("Figure 7: prediction error with %s warmup", h.Warmup), rows)
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
					full := h.Full(b, cores)
					a := h.Analysis(b, cores, cfg)
					est, err := a.EstimateFrom(a.PerfectWarmup(full))
					if err != nil {
						panic(err)
					}
					errs = append(errs, stats.AbsPctErr(est.TimeNs, bp.ActualFrom(full).TimeNs))
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
			full := h.Full(b, simCores)
			act := bp.ActualFrom(full)
			for _, svCores := range CoreCounts {
				aSV := h.DefaultAnalysis(b, svCores)
				// Transfer the selection to the simulated machine's
				// region weights.
				sel := cluster.Rebind(aSV.Selection, profile.Weights(h.Profiles(b, simCores)))
				transferred := &bp.Analysis{
					Program:   h.Program(b, simCores),
					Config:    bp.DefaultConfig(),
					Profiles:  h.Profiles(b, simCores),
					Selection: sel,
				}
				est, err := transferred.EstimateFrom(transferred.PerfectWarmup(full))
				if err != nil {
					panic(err)
				}
				row = append(row, fmt.Sprintf("%.2f", stats.AbsPctErr(est.TimeNs, act.TimeNs)))
			}
		}
		// Reorder: the paper lists (8c/8cSV, 8c/32cSV, 32c/8cSV, 32c/32cSV);
		// the loop above produced exactly that order.
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
		var est [2]float64
		var act [2]float64
		for ci, cores := range CoreCounts {
			full := h.Full(b, cores)
			a := h.DefaultAnalysis(b, cores)
			results := h.Points(b, cores, a, h.Warmup, "default")
			e, err := a.EstimateFrom(results)
			if err != nil {
				panic(err)
			}
			est[ci] = e.TimeNs
			act[ci] = bp.ActualFrom(full).TimeNs
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
			full := h.Full(b, cores)
			a := h.DefaultAnalysis(b, cores)
			perfect := a.PerfectWarmup(full)
			act := bp.ActualFrom(full)
			est, err := a.EstimateFrom(perfect)
			if err != nil {
				panic(err)
			}
			estU, err := bp.EstimateUnscaled(a.Selection, perfect)
			if err != nil {
				panic(err)
			}
			e1 := stats.AbsPctErr(est.TimeNs, act.TimeNs)
			e2 := stats.AbsPctErr(estU.TimeNs, act.TimeNs)
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
			full := h.Full(b, cores)
			act := bp.ActualFrom(full)
			var errs [2]float64
			for vi, sum := range []bool{false, true} {
				cfg := bp.DefaultConfig()
				cfg.Signature.SumThreads = sum
				a := h.Analysis(b, cores, cfg)
				est, err := a.EstimateFrom(a.PerfectWarmup(full))
				if err != nil {
					panic(err)
				}
				errs[vi] = stats.AbsPctErr(est.TimeNs, act.TimeNs)
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
	modes := []bp.WarmupMode{bp.ColdWarmup, bp.MRUWarmup, bp.MRUPrevWarmup}
	sums := make([][]float64, 4)
	for _, b := range h.BenchNames() {
		for _, cores := range CoreCounts {
			full := h.Full(b, cores)
			a := h.DefaultAnalysis(b, cores)
			act := bp.ActualFrom(full)
			row := []string{b, fmt.Sprintf("%d", cores)}
			est, err := a.EstimateFrom(a.PerfectWarmup(full))
			if err != nil {
				panic(err)
			}
			e := stats.AbsPctErr(est.TimeNs, act.TimeNs)
			sums[0] = append(sums[0], e)
			row = append(row, fmt.Sprintf("%.2f", e))
			for mi, mode := range modes {
				est, err := a.EstimateFrom(h.Points(b, cores, a, mode, "default"))
				if err != nil {
					panic(err)
				}
				e := stats.AbsPctErr(est.TimeNs, act.TimeNs)
				sums[mi+1] = append(sums[mi+1], e)
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
