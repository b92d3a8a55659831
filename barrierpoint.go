// Package barrierpoint is a Go implementation of the BarrierPoint sampled
// simulation methodology for barrier-synchronized multi-threaded
// applications (Carlson, Heirman, Van Craeynest, Eeckhout — "BarrierPoint:
// Sampled Simulation of Multi-Threaded Applications", ISPASS 2014).
//
// The flow mirrors the paper's Figure 2:
//
//  1. Analyze profiles a program's inter-barrier regions
//     (microarchitecture-independently: per-thread basic block vectors and
//     LRU stack distance vectors), clusters them SimPoint-style, and
//     selects representative regions — barrierpoints — with multipliers.
//  2. SimulatePoints runs only the barrierpoints in detail (in parallel,
//     each run of them on its own machine, warmed by MRU cache-line replay).
//  3. Estimate reconstructs whole-program execution time and other
//     metrics as Σ metric_j · multiplier_j.
//
// SimulateFull provides the ground-truth detailed simulation used to
// validate estimates, and the package exposes speedup/resource accounting
// matching the paper's Figure 9.
//
// Programs need not live in memory: SaveTrace/RecordTrace persist any
// Program as a compact binary trace file, and OpenTrace replays one with
// regions streaming straight off disk (O(region) memory), producing
// bit-identical signatures, selections and simulation results. This is the
// record/replay path for analyzing traces captured elsewhere — see
// internal/tracefile for the file format and cmd/bptool's record and info
// subcommands for the CLI.
//
// The analysis is a pure function of the trace bytes, so its outputs cache
// by content: the analysis service (internal/store, internal/service,
// cmd/bpserve, cmd/bptool) files a trace under the SHA-256 of its bytes,
// and selections and estimates under that key plus a hash of every
// parameter they depend on (analysis config; machine config and warmup
// mode). Repeat analyses of byte-identical traces never re-profile: the
// paper's "one-time cost" (Fig. 2) is paid once per trace content.
//
// Every replay streams its regions from the trace, decoding as it goes: no
// command keeps decoded regions between replays.
package barrierpoint

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"barrierpoint/internal/cluster"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/reconstruct"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/sim"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/warmup"
)

// Re-exported types: the public API surface in one place.
type (
	// Program is a barrier-synchronized multi-threaded application trace.
	Program = trace.Program
	// Region is one inter-barrier region of a Program.
	Region = trace.Region
	// Stream is one thread's dynamic basic block sequence within a Region.
	Stream = trace.Stream
	// BlockExec is one dynamic basic block execution.
	BlockExec = trace.BlockExec
	// Access is one data memory reference.
	Access = trace.Access

	// MachineConfig describes a simulated machine (see sim.TableI).
	MachineConfig = sim.Config
	// CacheConfig describes one cache level.
	CacheConfig = sim.CacheConfig
	// RegionResult is the detailed simulation result of one region.
	RegionResult = sim.RegionResult

	// SignatureOptions selects the region similarity metric (BBV, LDV,
	// combined; LDV weighting; thread combination).
	SignatureOptions = signature.Options
	// ClusterParams are the SimPoint-style clustering parameters.
	ClusterParams = cluster.Params
	// BarrierPoint is one selected representative region.
	BarrierPoint = cluster.BarrierPoint
	// Selection is a complete clustering and barrierpoint selection.
	Selection = cluster.Result
	// Estimate is a reconstructed whole-program prediction.
	Estimate = reconstruct.Estimate

	// TraceFile is a recorded trace opened for replay; it implements
	// Program with regions streaming off disk.
	TraceFile = tracefile.File
	// TraceOption configures trace recording (see WithTraceGzip).
	TraceOption = tracefile.Option
)

// WithTraceGzip enables or disables per-chunk gzip compression when
// recording a trace.
func WithTraceGzip(on bool) TraceOption { return tracefile.WithGzip(on) }

// Signature kind constants, re-exported for configuration.
const (
	BBVOnly  = signature.BBVOnly
	LDVOnly  = signature.LDVOnly
	Combined = signature.Combined
)

// TableIMachine returns the paper's Table I machine configuration with the
// given socket count (1 → 8 cores, 4 → 32 cores).
func TableIMachine(sockets int) MachineConfig { return sim.TableI(sockets) }

// Config bundles the analysis parameters.
type Config struct {
	Signature SignatureOptions
	Cluster   ClusterParams
}

// DefaultConfig returns the paper's defaults: combined (BBV+LDV)
// signatures, unweighted LDVs, per-thread concatenation, dim=15, maxK=20.
func DefaultConfig() Config {
	return Config{
		Signature: signature.Default(),
		Cluster:   cluster.DefaultParams(),
	}
}

// Analysis is the one-time, microarchitecture-independent analysis of a
// program: its barrierpoint selection under an analysis configuration. The
// selection's RegionWeights are the program's per-region instruction counts.
type Analysis struct {
	Program   Program
	Config    Config
	Selection *Selection
}

// StageObserver receives the wall-clock duration of each named pipeline
// stage as it completes. A nil observer is valid and records nothing;
// observers must not influence results — they are telemetry only.
// LocalRunner calls its Observer from the pool's goroutines, several at
// once: it must be safe for concurrent use.
type StageObserver func(stage string, d time.Duration)

// Analyze profiles every inter-barrier region of p and selects
// barrierpoints. This is the "one-time cost" path of the paper's Fig. 2. A
// region whose stream fails to decode (a damaged trace file) fails it.
func Analyze(p Program, cfg Config) (*Analysis, error) {
	profiles, err := profile.Program(p)
	if err != nil {
		return nil, err
	}
	return AnalyzeWithProfiles(p, cfg, profiles)
}

// AnalyzeWithProfiles runs selection over pre-collected profiles (e.g. to
// explore signature options without re-profiling).
func AnalyzeWithProfiles(p Program, cfg Config, profiles []*signature.RegionData) (*Analysis, error) {
	svs, weights := signature.BuildAll(profiles, cfg.Signature)
	sel, err := cluster.Select(svs, weights, cfg.Cluster)
	if err != nil {
		return nil, fmt.Errorf("barrierpoint: selection failed: %w", err)
	}
	return &Analysis{Program: p, Config: cfg, Selection: sel}, nil
}

// TotalInstrs returns the program's aggregate instruction count.
func (a *Analysis) TotalInstrs() uint64 {
	var t float64
	for _, w := range a.Selection.RegionWeights {
		t += w
	}
	return uint64(t)
}

// pointInstrs returns the aggregate instruction counts of each
// barrierpoint region.
func (a *Analysis) pointInstrs() []uint64 {
	out := make([]uint64, len(a.Selection.Points))
	for i, p := range a.Selection.Points {
		out[i] = uint64(a.Selection.RegionWeights[p.Region])
	}
	return out
}

// SerialSpeedup is the paper's Fig. 9 serial speedup: the reduction in
// aggregate instruction count when simulating only barrierpoints
// back-to-back instead of the whole program.
func (a *Analysis) SerialSpeedup() float64 {
	var bp uint64
	for _, n := range a.pointInstrs() {
		bp += n
	}
	if bp == 0 {
		return 0
	}
	return float64(a.TotalInstrs()) / float64(bp)
}

// ParallelSpeedup is the paper's Fig. 9 parallel speedup: total instruction
// count over the largest single barrierpoint, i.e. the latency reduction
// with unlimited simulation machines.
func (a *Analysis) ParallelSpeedup() float64 {
	var max uint64
	for _, n := range a.pointInstrs() {
		if n > max {
			max = n
		}
	}
	if max == 0 {
		return 0
	}
	return float64(a.TotalInstrs()) / float64(max)
}

// ResourceReduction is the factor fewer simulation machines BarrierPoint
// needs compared to simulating every inter-barrier region in parallel
// (Bryan et al.), i.e. regions / barrierpoints.
func (a *Analysis) ResourceReduction() float64 {
	if len(a.Selection.Points) == 0 {
		return 0
	}
	return float64(len(a.Selection.Assignment)) / float64(len(a.Selection.Points))
}

// SimulateFull runs the complete detailed ("ground truth") simulation of p
// on a fresh machine: every region in order, with persistent state.
func SimulateFull(p Program, mc MachineConfig) ([]RegionResult, error) {
	if err := checkPoints(p, nil, mc); err != nil {
		return nil, err
	}
	m := sim.New(mc)
	out := make([]RegionResult, p.Regions())
	for i := 0; i < p.Regions(); i++ {
		out[i] = m.RunRegion(p.Region(i))
	}
	return out, nil
}

// WarmupMode selects how barrierpoint simulations initialize
// microarchitectural state.
type WarmupMode int

const (
	// ColdWarmup starts every barrierpoint on empty caches (baseline).
	ColdWarmup WarmupMode = iota
	// MRUWarmup replays each core's captured most-recently-used lines
	// before detailed simulation — the paper's §IV technique.
	MRUWarmup
	// MRUPrevWarmup is MRUWarmup plus a functional execution of the
	// window of regions preceding the barrierpoint, which additionally
	// warms branch predictors and instruction caches (MRRL-style). The
	// window spans one full phase cycle of the benchmarks, so every
	// kernel's predictor entries are re-trained. The paper notes
	// core-structure warmup is unnecessary for multi-million-instruction
	// regions; our scaled-down regions are short enough that it matters.
	//
	// That warming is paid once per run of consecutive barrierpoints (see
	// Runs): only the run's head is warmed, and each later member continues
	// on the head's machine right after its predecessor's detailed
	// simulation, with the true state and no warming of its own.
	MRUPrevWarmup
)

// prevWarmupWindow is the number of preceding regions MRUPrevWarmup replays
// functionally: wide enough to cover one full time step (phase cycle) of
// every workload in the suite, so each static kernel re-trains its branch
// predictor entries before detailed simulation.
const prevWarmupWindow = 12

// Runs groups the regions a PointRunner is asked for into the runs it
// simulates, each on one machine (see runPoint): ascending, without
// duplicates and, under MRUPrevWarmup, split into maximal runs of
// consecutive regions. Under ColdWarmup and MRUWarmup every region is a run
// of its own. A run's first region is its head; a later member's result
// depends on its head, so a cache names it by both. Those two modes keep
// independent points because re-selections of one trace (new signature or
// max k) share stored point results only where the points are the same
// heads; runs there would multiply what a re-selection simulates.
func Runs(regions []int, mode WarmupMode) [][]int {
	regions = slices.Clone(regions)
	slices.Sort(regions)
	regions = slices.Compact(regions)
	var runs [][]int
	for i := 0; i < len(regions); {
		j := i + 1
		for mode == MRUPrevWarmup && j < len(regions) && regions[j] == regions[j-1]+1 {
			j++
		}
		runs = append(runs, regions[i:j:j])
		i = j
	}
	return runs
}

// ParseWarmup parses a warmup mode label as printed by WarmupMode.String.
// It is the single vocabulary shared by the CLI, the service API and the
// farm task protocol.
func ParseWarmup(s string) (WarmupMode, error) {
	switch s {
	case "", "cold":
		return ColdWarmup, nil
	case "mru":
		return MRUWarmup, nil
	case "mru+prev":
		return MRUPrevWarmup, nil
	default:
		return 0, fmt.Errorf("barrierpoint: unknown warmup mode %q (want cold, mru or mru+prev)", s)
	}
}

// String names the mode.
func (w WarmupMode) String() string {
	switch w {
	case ColdWarmup:
		return "cold"
	case MRUWarmup:
		return "mru"
	case MRUPrevWarmup:
		return "mru+prev"
	default:
		return fmt.Sprintf("WarmupMode(%d)", int(w))
	}
}

// PointRunner executes the detailed simulation of a set of selected
// barrierpoint regions. It is the execution-strategy seam of the pipeline:
// LocalRunner (the default) runs the points on an in-process worker pool,
// while internal/farm provides runners that cache per-point results in a
// content-addressed store or distribute the points across a fleet of
// bpworker machines. All runners must produce bit-identical RegionResults
// for the same program, regions, machine and warmup mode: they simulate the
// Runs of the listed regions, each run's head on a fresh machine whose
// warmup state depends only on the trace prefix before the head, and each
// later member in detail on that machine right after its predecessor. A
// region's result thus depends on the trace, machine, mode and its run's
// head, never on which other runs there are, or where or in which order
// they run.
type PointRunner interface {
	// RunPoints simulates each listed region of p in detail and returns
	// the results keyed by region index. regions may contain duplicates;
	// implementations must cover every listed region.
	RunPoints(p Program, regions []int, mc MachineConfig, mode WarmupMode) (map[int]RegionResult, error)
}

// LocalRunner is the default PointRunner: a bounded in-process worker pool
// of Workers goroutines (GOMAXPROCS if <= 0) draining a shared queue of
// runs (see Runs). The calling goroutine takes each run's head snapshot from
// one PrefixPass in ascending region order; the pool is already running, so
// a run starts simulating the moment the pass reaches its head and detailed
// simulation overlaps the rest of the pass. A run's members simulate one
// after another on its goroutine: a long run gives up point parallelism, and
// saves its members' snapshots and warming.
type LocalRunner struct {
	Workers int
	// Observer, if set, times the work. It receives "warmup-capture" once per
	// RunPoints call, with the call's own MRU prefix pass time, when the pass
	// ends; the pass runs while earlier runs already simulate, so the stage
	// overlaps the caller's simulation stage rather than preceding it (and so
	// does its "trace-decode"; see PrefixPass.Run). Each run then reports the
	// phases it ran from the pool goroutine that ran it: once per run,
	// "warm-replay" (its head's snapshot replayed onto a fresh machine; not
	// under ColdWarmup) and "warm-prev" (the regions preceding the head
	// executed functionally; MRUPrevWarmup only), and once per point
	// "point-detail" (the detailed simulation of the point itself). Summed
	// they are time spent across the pool's goroutines, not the call's
	// wall-clock time: how an estimate's cost splits between functional
	// warming and detailed simulation.
	Observer StageObserver
}

// RunPoints implements PointRunner on the local worker pool.
func (lr LocalRunner) RunPoints(p Program, regions []int, mc MachineConfig, mode WarmupMode) (map[int]RegionResult, error) {
	if err := checkPoints(p, regions, mc); err != nil {
		return nil, err
	}
	runs := Runs(regions, mode)

	// Bounded worker pool: at most Workers goroutines drain a shared
	// queue of runs, rather than spawning one goroutine per run gated by
	// a semaphore — large selections would otherwise park thousands of
	// goroutines on the semaphore and churn the scheduler. The queue
	// holds every run, so feeding it never blocks the pass.
	out := make(map[int]RegionResult, len(regions))
	var mu sync.Mutex
	var wg sync.WaitGroup
	workers := lr.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(runs))
	next := make(chan func(), len(runs))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := range next {
				run()
			}
		}()
	}
	pass := NewPrefixPass(mc)
	t0 := time.Now()
	var err, pointErr error
	for _, run := range runs {
		var simulate func() ([]RegionResult, error)
		if simulate, err = pass.Run(p, run[0], len(run), mode, lr.Observer); err != nil {
			break
		}
		next <- func() {
			res, err := simulate()
			mu.Lock()
			defer mu.Unlock()
			for i, r := range res {
				out[run[i]] = r
			}
			pointErr = cmp.Or(pointErr, err)
		}
	}
	if pass.pass != nil && lr.Observer != nil { // the pass tracked: an MRU mode
		lr.Observer("warmup-capture", time.Since(t0))
	}
	close(next)
	wg.Wait()
	if err = cmp.Or(err, pointErr); err != nil {
		return nil, err
	}
	return out, nil
}

// checkPoints reports whether p runs on mc and holds every listed region.
func checkPoints(p Program, regions []int, mc MachineConfig) error {
	if p.Threads() != mc.Cores() {
		return fmt.Errorf("barrierpoint: program has %d threads but machine has %d cores", p.Threads(), mc.Cores())
	}
	for _, r := range regions {
		if r < 0 || r >= p.Regions() {
			return fmt.Errorf("barrierpoint: region %d out of range [0, %d)", r, p.Regions())
		}
	}
	return nil
}

// mruCapacity is mc's MRU tracking depth in lines: its largest total shared LLC.
func mruCapacity(mc MachineConfig) int { return mc.L3.Lines() * mc.Sockets }

// runPoint simulates one run of barrierpoints, the n consecutive regions
// from head (see Runs): head on a fresh machine warmed with the given
// snapshot, then each later member in detail on the same machine right after
// its predecessor, as the full simulation would. This is the single code path
// every runner ends in (see PrefixPass.Run), so in-process and farmed
// execution cannot diverge. Fresh means in the state of sim.New, not newly
// allocated: the machine is a Reset one from sim's free list (exact: see that
// package's comment) and returns there once the results, which share no
// memory with it, are in hand. Each phase that runs is reported to obsrv as
// it ends; the first one includes obtaining the machine. The pass that took
// the snapshot checked that the regions before head decode; the run's own
// regions are checked here.
func runPoint(p Program, head, n int, mc MachineConfig, mode WarmupMode, snap warmup.Snapshot, obsrv StageObserver) ([]RegionResult, error) {
	t := time.Now()
	lap := func(stage string) {
		if obsrv != nil {
			now := time.Now()
			obsrv(stage, now.Sub(t))
			t = now
		}
	}
	m := sim.Acquire(mc)
	defer sim.Release(m)
	if mode != ColdWarmup {
		warmup.Replay(m, snap)
		lap("warm-replay")
	}
	if mode == MRUPrevWarmup {
		for q := max(head-prevWarmupWindow, 0); q < head; q++ {
			m.WarmRegion(p.Region(q))
		}
		lap("warm-prev")
	}
	out := make([]RegionResult, n)
	for i := range out {
		r := trace.CheckedRegion{Region: p.Region(head + i)}
		out[i] = m.RunRegion(&r)
		lap("point-detail")
		if err := r.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SimulatePoint runs the detailed simulation of a single region as a run
// of its own, producing a RegionResult bit-identical to the one any runner
// computes for that region as a run's head: the warmup snapshot captured at
// a region's entry is a pure function of the trace prefix before it, so
// simulating one point in isolation — on another machine, in another
// process — yields exactly the local result. It is the first Run of a fresh
// PrefixPass: one prefix pass from region 0 per call.
func SimulatePoint(p Program, region int, mc MachineConfig, mode WarmupMode) (RegionResult, error) {
	simulate, err := NewPrefixPass(mc).Run(p, region, 1, mode, nil)
	if err != nil {
		return RegionResult{}, err
	}
	res, err := simulate()
	if err != nil {
		return RegionResult{}, err
	}
	return res[0], nil
}

// PrefixPass is the one producer of point simulations: the MRU prefix pass
// of one trace on one machine, handing out each run it reaches. A snapshot
// is a pure function of the trace prefix, so whoever simulates runs of one
// trace in ascending order — LocalRunner within a call, a farm worker across
// its tasks — continues the pass rather than repeating it, with bit-identical
// results. A pass is not safe for concurrent use; when to keep it and when to
// start over is the caller's policy (see farm.Executor).
type PrefixPass struct {
	mc   MachineConfig
	pass *warmup.Pass // nil until the first MRU run
}

// NewPrefixPass returns a pass at region 0 for points simulated on mc.
func NewPrefixPass(mc MachineConfig) *PrefixPass { return &PrefixPass{mc: mc} }

// Pos returns the first region the pass has not tracked; Run accepts heads
// from Pos on.
func (pp *PrefixPass) Pos() int {
	if pp.pass == nil {
		return 0
	}
	return pp.pass.Pos()
}

// Run is the simulation of one run — the n >= 1 consecutive regions from
// head — in two halves. Under an MRU mode the call tracks the regions from where
// the pass stands up to head and snapshots — the advance only, not a pass
// from region 0; the caller times it ("warmup-capture"). head must not be
// behind an earlier call's head. Under ColdWarmup there is no snapshot and
// the pass is left where it was (its trackers are built by the first MRU
// run). The advance reads each region access-only where p offers it and
// reports those reads as "trace-decode"; the function returned is the rest,
// runPoint, which decodes its own window and members, returns the members'
// results in region order and reports its phases to obsrv. It touches
// neither the pass nor its trackers, so a caller takes a batch's snapshots
// in ascending order and runs the functions in parallel, each exactly once.
// A snapshot must be unreachable once its run has replayed it, however
// long the function stays queued or on a goroutine's stack: the function
// drops its own reference before it calls runPoint, and runPoint has no use
// for the snapshot after the replay — live snapshots are bounded by the runs
// waiting, not by the runs taken. p must stay open until the function
// returns.
//
// A region that fails to decode is an error of the call if the pass tracked
// it (the pass then starts over from region 0), else of the function.
func (pp *PrefixPass) Run(p Program, head, n int, mode WarmupMode, obsrv StageObserver) (func() ([]RegionResult, error), error) {
	if err := checkPoints(p, []int{head, head + n - 1}, pp.mc); err != nil {
		return nil, err
	}
	var snap warmup.Snapshot
	if mode != ColdWarmup {
		if pp.pass == nil {
			pp.pass = warmup.NewPass(pp.mc.Cores(), mruCapacity(pp.mc))
		}
		d0 := pp.pass.Decoded()
		var err error
		if snap, err = pp.pass.Snapshot(p, head); err != nil {
			pp.pass = nil
			return nil, err
		}
		if d := pp.pass.Decoded() - d0; d > 0 && obsrv != nil {
			obsrv("trace-decode", d)
		}
	}
	mc := pp.mc
	return func() ([]RegionResult, error) {
		s := snap
		snap = nil
		return runPoint(p, head, n, mc, mode, s, obsrv)
	}, nil
}

// SimulatePoints runs the selected barrierpoints in detail, each run of them
// (see Runs) on its own fresh machine, in parallel across available CPUs.
// With an MRU mode, one functional pass over the program captures per-core
// MRU cache lines at each run's head; each machine replays its snapshot
// first.
func (a *Analysis) SimulatePoints(mc MachineConfig, mode WarmupMode) (map[int]RegionResult, error) {
	return a.SimulatePointsWith(LocalRunner{}, mc, mode)
}

// SimulatePointsWith runs the selected barrierpoints through an explicit
// execution strategy: LocalRunner for the in-process pool, or a
// store-backed or farm-distributed runner from internal/farm.
func (a *Analysis) SimulatePointsWith(runner PointRunner, mc MachineConfig, mode WarmupMode) (map[int]RegionResult, error) {
	if err := checkPoints(a.Program, nil, mc); err != nil {
		return nil, err
	}
	regions := make([]int, len(a.Selection.Points))
	for i, p := range a.Selection.Points {
		regions[i] = p.Region
	}
	return runner.RunPoints(a.Program, regions, mc, mode)
}

// EstimateFrom reconstructs whole-program metrics from barrierpoint
// results (metric_app = Σ metric_j · mult_j).
func (a *Analysis) EstimateFrom(results map[int]RegionResult) (Estimate, error) {
	return reconstruct.Reconstruct(a.Selection, results)
}

// Estimate is the one-call convenience: simulate barrierpoints under the
// given machine and warmup mode on the local pool, then reconstruct
// whole-program metrics. With another execution strategy it is
// SimulatePointsWith then EstimateFrom: reconstruction sums the per-point
// results in selection order, so any two runners that simulate the same
// points bit-identically — as all runners must — produce bit-identical
// estimates.
func (a *Analysis) Estimate(mc MachineConfig, mode WarmupMode) (Estimate, error) {
	res, err := a.SimulatePoints(mc, mode)
	if err != nil {
		return Estimate{}, err
	}
	return a.EstimateFrom(res)
}

// ActualFrom sums ground-truth per-region results for error comparison.
func ActualFrom(results []RegionResult) Estimate { return reconstruct.Actual(results) }

// PerfectWarmup extracts barrierpoint results out of a full simulation —
// the paper's perfect-warmup evaluation mode isolating selection error.
func (a *Analysis) PerfectWarmup(full []RegionResult) map[int]RegionResult {
	return reconstruct.PerfectWarmupResults(a.Selection, full)
}
