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
//     each on its own machine, warmed by MRU cache-line replay).
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
// cmd/bpserve, bptool -cache) files a trace under the SHA-256 of its bytes,
// and selections and estimates under that key plus a hash of every
// parameter they depend on (analysis config; machine config and warmup
// mode). Repeat analyses of byte-identical traces never re-profile: the
// paper's "one-time cost" (Fig. 2) is paid once per trace content.
//
// Within one job or run, internal/tracefile.RegionCache keeps decoded
// regions that stages revisit (mru+prev windows, estimate plus ground
// truth), so each decodes once; cached and uncached replays are identical.
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

// BarrierPoints returns the selected representative regions.
func (a *Analysis) BarrierPoints() []BarrierPoint { return a.Selection.Points }

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
	MRUPrevWarmup
)

// prevWarmupWindow is the number of preceding regions MRUPrevWarmup replays
// functionally: wide enough to cover one full time step (phase cycle) of
// every workload in the suite, so each static kernel re-trains its branch
// predictor entries before detailed simulation.
const prevWarmupWindow = 12

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
// for the same program, machine and warmup mode — each point is simulated
// on a fresh machine whose warmup state depends only on the trace prefix
// before the point, never on which other points run or where.
type PointRunner interface {
	// RunPoints simulates each listed region of p in detail and returns
	// the results keyed by region index. regions may contain duplicates;
	// implementations must cover every listed region.
	RunPoints(p Program, regions []int, mc MachineConfig, mode WarmupMode) (map[int]RegionResult, error)
}

// LocalRunner is the default PointRunner: a bounded in-process worker pool
// of Workers goroutines (GOMAXPROCS if <= 0) draining a shared queue of
// barrierpoints. The calling goroutine takes the points from one PrefixPass
// in ascending region order; the pool is already running, so a point starts
// simulating the moment the pass reaches its region and detailed simulation
// overlaps the rest of the pass.
type LocalRunner struct {
	Workers int
	// Observer, if set, times the work. It receives "warmup-capture" once per
	// RunPoints call, with the call's own MRU prefix pass time, when the pass
	// ends; the pass runs while earlier points already simulate, so the stage
	// overlaps the caller's simulation stage rather than preceding it (and so
	// does its "trace-decode"; see PrefixPass.Point). Each point then reports
	// the phases it ran, once per point and from the pool goroutine that ran
	// it: "warm-replay" (its snapshot replayed onto a fresh machine; not under
	// ColdWarmup), "warm-prev" (the preceding regions
	// executed functionally; MRUPrevWarmup only) and "point-detail" (the
	// detailed simulation of the point itself). Summed over the points they
	// are time spent across the pool's goroutines, not the call's wall-clock
	// time: how an estimate's cost splits between functional warming and
	// detailed simulation.
	Observer StageObserver
}

// RunPoints implements PointRunner on the local worker pool.
func (lr LocalRunner) RunPoints(p Program, regions []int, mc MachineConfig, mode WarmupMode) (map[int]RegionResult, error) {
	regions = slices.Clone(regions)
	slices.Sort(regions)
	regions = slices.Compact(regions)
	if err := checkPoints(p, regions, mc); err != nil {
		return nil, err
	}

	// Bounded worker pool: at most Workers goroutines drain a shared
	// queue of barrierpoints, rather than spawning one goroutine per point
	// gated by a semaphore — large selections would otherwise park
	// thousands of goroutines on the semaphore and churn the scheduler.
	// The queue holds every point, so feeding it never blocks the pass.
	out := make(map[int]RegionResult, len(regions))
	var mu sync.Mutex
	var wg sync.WaitGroup
	workers := lr.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(regions))
	next := make(chan func(), len(regions))
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
	for _, r := range regions {
		var point func() (RegionResult, error)
		if point, err = pass.Point(p, r, mode, lr.Observer); err != nil {
			break
		}
		next <- func() {
			res, err := point()
			mu.Lock()
			out[r], pointErr = res, cmp.Or(pointErr, err)
			mu.Unlock()
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

// runPoint simulates one barrierpoint on a fresh machine with the given
// warmup snapshot. This is the single code path every runner ends in (see
// PrefixPass.Point), so in-process and farmed execution cannot diverge. Fresh
// means in the state of sim.New, not newly allocated: the machine is a Reset
// one from sim's free list (exact: see that package's comment) and returns
// there once the result, which shares no memory with it, is in hand. Each
// phase that runs is reported to obsrv as it ends; the first one includes
// obtaining the machine. The pass that took the snapshot checked that the
// regions before the point decode; the point's own region is checked here.
func runPoint(p Program, region int, mc MachineConfig, mode WarmupMode, snap warmup.Snapshot, obsrv StageObserver) (RegionResult, error) {
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
		for q := max(region-prevWarmupWindow, 0); q < region; q++ {
			m.WarmRegion(p.Region(q))
		}
		lap("warm-prev")
	}
	r := trace.CheckedRegion{Region: p.Region(region)}
	res := m.RunRegion(&r)
	lap("point-detail")
	return res, r.Err()
}

// SimulatePoint runs the detailed simulation of a single selected region,
// producing a RegionResult bit-identical to the one SimulatePoints would
// compute for that region: the warmup snapshot captured at a region's
// entry is a pure function of the trace prefix before it, so simulating
// one point in isolation — on another machine, in another process —
// yields exactly the local result. It is the first Point of a fresh
// PrefixPass: one prefix pass from region 0 per call.
func SimulatePoint(p Program, region int, mc MachineConfig, mode WarmupMode) (RegionResult, error) {
	point, err := NewPrefixPass(mc).Point(p, region, mode, nil)
	if err != nil {
		return RegionResult{}, err
	}
	return point()
}

// PrefixPass is the one producer of point simulations: the MRU prefix pass
// of one trace on one machine, handing out each point it reaches. A snapshot
// is a pure function of the trace prefix, so whoever simulates points of one
// trace in ascending order — LocalRunner within a call, a farm worker across
// its tasks — continues the pass rather than repeating it, with bit-identical
// results. A pass is not safe for concurrent use; when to keep it and when to
// start over is the caller's policy (see farm.Executor).
type PrefixPass struct {
	mc   MachineConfig
	pass *warmup.Pass // nil until the first MRU point
}

// NewPrefixPass returns a pass at region 0 for points simulated on mc.
func NewPrefixPass(mc MachineConfig) *PrefixPass { return &PrefixPass{mc: mc} }

// Pos returns the first region the pass has not tracked; Point accepts
// regions from Pos on.
func (pp *PrefixPass) Pos() int {
	if pp.pass == nil {
		return 0
	}
	return pp.pass.Pos()
}

// Point is one point simulation in two halves. Under an MRU mode the call
// tracks regions [Pos, region) of p and snapshots — the advance only, not a
// pass from region 0; the caller times it ("warmup-capture"). Under
// ColdWarmup there is no snapshot and the pass is left where it was (its
// trackers are built by the first MRU point). The function returned is the
// rest: runPoint, reporting its phases to obsrv (the advance reports its
// access-only reads as "trace-decode"). It touches neither the pass nor its
// trackers, so a caller takes a batch's snapshots in ascending order and runs
// the functions in parallel, each exactly once. A snapshot must be
// unreachable once its point has replayed it, however long the function stays
// queued or on a goroutine's stack: the function drops its own reference
// before it calls runPoint, and runPoint has no use for the snapshot after
// the replay — live snapshots are bounded by the points waiting, not by the
// points taken. p must stay open until the function returns.
//
// A region that fails to decode is an error of the call if the pass tracked
// it (the pass then starts over from region 0), else of the function.
func (pp *PrefixPass) Point(p Program, region int, mode WarmupMode, obsrv StageObserver) (func() (RegionResult, error), error) {
	if err := checkPoints(p, []int{region}, pp.mc); err != nil {
		return nil, err
	}
	var snap warmup.Snapshot
	if mode != ColdWarmup {
		if pp.pass == nil {
			pp.pass = warmup.NewPass(pp.mc.Cores(), mruCapacity(pp.mc))
		}
		window := 0 // the regions runPoint replays in full before the point
		if mode == MRUPrevWarmup {
			window = prevWarmupWindow
		}
		d0 := pp.pass.Decoded()
		var err error
		if snap, err = pp.pass.Snapshot(p, region, window); err != nil {
			pp.pass = nil
			return nil, err
		}
		if d := pp.pass.Decoded() - d0; d > 0 && obsrv != nil {
			obsrv("trace-decode", d)
		}
	}
	mc := pp.mc
	return func() (RegionResult, error) {
		s := snap
		snap = nil
		return runPoint(p, region, mc, mode, s, obsrv)
	}, nil
}

// SimulatePoints runs the selected barrierpoints in detail, each on its own
// fresh machine, in parallel across available CPUs. With MRUWarmup, one
// functional pass over the program captures per-core MRU cache lines at
// each barrierpoint entry; each machine replays its snapshot first.
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
