// Package experiments regenerates every table and figure of the paper's
// evaluation section (§V-VI) on the synthetic workload suite and the Go
// timing simulator. Each Harness method renders one of them as a report
// table; the Harness memoizes what they share (workloads, profiles, full
// and point simulations), and runErr is the one accuracy measure.
package experiments

import (
	"fmt"
	"sync"

	bp "barrierpoint"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/workload"
)

// CoreCounts are the two machine sizes of the paper's Table I.
var CoreCounts = []int{8, 32}

// Harness caches workloads, profiles and full ("ground truth") simulations
// per benchmark and core count.
type Harness struct {
	// Scale shrinks workload iteration counts for fast runs (1.0 = the
	// paper-shaped configuration; tests and benches use smaller values).
	Scale float64
	// Warmup selects the warmup technique for the paper's §VI-B results.
	Warmup bp.WarmupMode
	// Benches restricts the benchmark set (nil = all).
	Benches []string

	mu     sync.Mutex
	progs  map[progKey]bp.Program
	fulls  map[progKey][]bp.RegionResult
	profs  map[progKey][]*signature.RegionData
	points map[pointsKey]map[int]bp.RegionResult
}

type progKey struct {
	bench string
	cores int
}

type pointsKey struct {
	progKey
	warmup bp.WarmupMode
}

// New returns a harness at the given workload scale with the MRU+previous-
// regions warmup: the paper's §IV technique plus a functional run of the
// regions just before the point, because regions this short also need their
// branch predictors and instruction caches warm (see bp.MRUPrevWarmup).
func New(scale float64) *Harness {
	return &Harness{
		Scale:  scale,
		Warmup: bp.MRUPrevWarmup,
		progs:  make(map[progKey]bp.Program),
		fulls:  make(map[progKey][]bp.RegionResult),
		profs:  make(map[progKey][]*signature.RegionData),
		points: make(map[pointsKey]map[int]bp.RegionResult),
	}
}

// BenchNames returns the benchmark set this harness runs.
func (h *Harness) BenchNames() []string {
	if h.Benches != nil {
		return h.Benches
	}
	return workload.Names()
}

// Machine returns the Table I machine for a core count (8 or 32).
func (h *Harness) Machine(cores int) bp.MachineConfig {
	return bp.TableIMachine(cores / 8)
}

// memo returns m[k], computing it with f on first use. f runs unlocked, so
// racing first callers may both compute; the first value stored wins.
func memo[K comparable, V any](h *Harness, m map[K]V, k K, f func() V) V {
	h.mu.Lock()
	v, ok := m[k]
	h.mu.Unlock()
	if ok {
		return v
	}
	v = f()
	h.mu.Lock()
	defer h.mu.Unlock()
	if prev, ok := m[k]; ok {
		return prev
	}
	m[k] = v
	return v
}

// Program returns the (cached) workload instance.
func (h *Harness) Program(bench string, cores int) bp.Program {
	return memo(h, h.progs, progKey{bench, cores}, func() bp.Program {
		return workload.New(bench, cores, workload.WithScale(h.Scale))
	})
}

// Full returns the (cached) full detailed simulation of a benchmark.
func (h *Harness) Full(bench string, cores int) []bp.RegionResult {
	return memo(h, h.fulls, progKey{bench, cores}, func() []bp.RegionResult {
		r, err := bp.SimulateFull(h.Program(bench, cores), h.Machine(cores))
		if err != nil {
			panic(fmt.Sprintf("experiments: full simulation of %s/%d: %v", bench, cores, err))
		}
		return r
	})
}

// Profiles returns the (cached) per-region profiles of a benchmark.
func (h *Harness) Profiles(bench string, cores int) []*signature.RegionData {
	return memo(h, h.profs, progKey{bench, cores}, func() []*signature.RegionData {
		profiles, err := profile.Program(h.Program(bench, cores))
		if err != nil {
			panic(fmt.Sprintf("experiments: profiling %s/%d: %v", bench, cores, err))
		}
		return profiles
	})
}

// Analysis runs barrierpoint selection for a benchmark under cfg, reusing
// cached profiles.
func (h *Harness) Analysis(bench string, cores int, cfg bp.Config) *bp.Analysis {
	a, err := bp.AnalyzeWithProfiles(h.Program(bench, cores), cfg, h.Profiles(bench, cores))
	if err != nil {
		panic(fmt.Sprintf("experiments: analysis of %s/%d: %v", bench, cores, err))
	}
	return a
}

// DefaultAnalysis is Analysis with the paper's default configuration.
func (h *Harness) DefaultAnalysis(bench string, cores int) *bp.Analysis {
	return h.Analysis(bench, cores, bp.DefaultConfig())
}

// Points simulates the barrierpoints of a under a warmup mode, caching by
// (bench, cores, warmup): a must be the benchmark's DefaultAnalysis.
func (h *Harness) Points(bench string, cores int, a *bp.Analysis, mode bp.WarmupMode) map[int]bp.RegionResult {
	return memo(h, h.points, pointsKey{progKey{bench, cores}, mode}, func() map[int]bp.RegionResult {
		r, err := a.SimulatePoints(h.Machine(cores), mode)
		if err != nil {
			panic(fmt.Sprintf("experiments: point simulation of %s/%d: %v", bench, cores, err))
		}
		return r
	})
}
