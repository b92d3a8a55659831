// Package service is the analysis service behind cmd/bpserve, cmd/bpcamp and
// cmd/bptool: cached single-flight access to the expensive BarrierPoint
// pipeline stages over a content-addressed store (see internal/store), plus
// an async job service that runs them on a bounded worker pool.
//
// # Two halves
//
// The job service is a lifecycle and a pipeline. The lifecycle (Manager, in
// manager.go and journal.go) owns Submit/Get/Jobs/Wait/Shutdown, the pool,
// in-flight deduplication, retention, the journal and recovery; it reads
// result artifacts by name and never opens a trace. The pipeline (the
// unexported pipeline type, pipeline.go) owns what a job computes: request
// validation, the analyze / simulate / estimate execution, the point-runner
// choice and the stage telemetry; it sees no job ID, queue or journal. Two
// calls connect them: plan turns a Request into a plan — or rejects it —
// and run computes a plan into result bytes, timing it into the span it is
// handed. Both are fields of the Manager, so each half tests alone.
//
// This file holds what every store caller shares, job or not: artifact
// names, AnalyzeCached (trace → selection bytes) and BindCached (trace →
// bound Analysis), the one place a cached selection becomes an Analysis.
//
// # Cache keys
//
// Every artifact is keyed first by the trace's content key (SHA-256 of the
// trace file) and then by a name encoding everything the artifact depends
// on:
//
//	selection-<sig>-<cfgh>.json     barrierpoint selection; <sig> is the
//	                                signature label (e.g. "combine"),
//	                                <cfgh> hashes the full analysis config
//	                                (signature options + clustering params)
//	estimate-<mch>-<warmup>-<cfgh>.json
//	                                reconstructed estimate; <mch> hashes
//	                                the machine config, <warmup> is the
//	                                warmup mode label
//	actual-<mch>.json               ground-truth full-simulation metrics
//
// Hashes are the first 12 hex digits of the SHA-256 of the config's
// canonical JSON, so any parameter change — clustering seed, cache sizes,
// core count — lands on a distinct artifact, while repeat requests with
// identical parameters always hit the cache.
package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/reconstruct"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
)

// analyzeFn is the profiling+clustering entry point. It is a variable so
// tests can prove the cached path never re-profiles: the cache-hit test
// swaps in a function that fails the test if invoked (this is the only
// route into region profiling here).
var analyzeFn = analyzeProfiled

// analyzeProfiled is the default analysis path: per-region profiles come
// from the store's content-addressed profile cache (profilesFor runs the
// profile pass on a miss), then clustering runs over them. With a fully warm
// profile cache — the normal state right after a streaming upload — the
// reported stage is "profile-cache" instead of "profile", because no
// profiling happened: the analysis paid only profile reads + k-means.
// Either way the resulting selection is byte-identical to a cold pass
// (the profile codec round-trips exact float bits).
func analyzeProfiled(st *store.Store, key string, f *tracefile.File, cfg bp.Config, obsrv bp.StageObserver) (*bp.Analysis, ProfileStats, error) {
	t0 := time.Now()
	profiles, stats, err := profilesFor(st, key, f)
	if err != nil {
		return nil, stats, err
	}
	if obsrv != nil {
		stage := "profile"
		if stats.Regions > 0 && stats.Computed == 0 {
			stage = "profile-cache"
		}
		obsrv(stage, time.Since(t0))
	}
	t1 := time.Now()
	a, err := bp.AnalyzeWithProfiles(f, cfg, profiles)
	if obsrv != nil {
		obsrv("cluster", time.Since(t1))
	}
	return a, stats, err
}

// SelectionArtifact names the cached selection artifact for an analysis
// config.
func SelectionArtifact(cfg bp.Config) string {
	return fmt.Sprintf("selection-%s-%s.json", store.SanitizeLabel(cfg.Signature.Label()), store.HashJSON(cfg))
}

// EstimateArtifact names the cached estimate artifact for a machine,
// warmup mode and analysis config.
func EstimateArtifact(cfg bp.Config, mc bp.MachineConfig, mode bp.WarmupMode) string {
	return fmt.Sprintf("estimate-%s-%s-%s.json", store.HashJSON(mc), warmupLabel(mode), store.HashJSON(cfg))
}

// warmupLabel names a warmup mode in estimate artifact names, with the
// version of the mode's point-simulation rule where it has changed, so a
// store never serves an estimate an older rule computed: mru+prev is at
// rule 2 since a run of consecutive points became one simulation (bp.Runs).
func warmupLabel(mode bp.WarmupMode) string {
	label := store.SanitizeLabel(mode.String())
	if mode == bp.MRUPrevWarmup {
		label += "-rule2"
	}
	return label
}

// AdaptiveEstimateArtifact names the cached estimate artifact for an
// adaptive run targeting the given relative CI: a distinct artifact per
// target, since tighter targets simulate more regions and produce
// different (better) estimates. A zero target is the plain estimate.
func AdaptiveEstimateArtifact(cfg bp.Config, mc bp.MachineConfig, mode bp.WarmupMode, targetCI float64) string {
	if targetCI <= 0 {
		return EstimateArtifact(cfg, mc, mode)
	}
	return fmt.Sprintf("estimate-%s-%s-%s-ci%s.json",
		store.HashJSON(mc), warmupLabel(mode), store.HashJSON(cfg), store.SanitizeLabel(fmt.Sprintf("%g", targetCI)))
}

// ActualArtifact names the cached ground-truth (full simulation) artifact
// for a machine config.
func ActualArtifact(mc bp.MachineConfig) string {
	return fmt.Sprintf("actual-%s.json", store.HashJSON(mc))
}

// ParseSignature maps a signature label ("bbv", "reuse_dist", "combine")
// onto an analysis config; empty means the paper's default.
func ParseSignature(s string) (bp.Config, error) {
	cfg := bp.DefaultConfig()
	switch s {
	case "", "combine":
		cfg.Signature.Kind = bp.Combined
	case "bbv":
		cfg.Signature.Kind = bp.BBVOnly
	case "reuse_dist":
		cfg.Signature.Kind = bp.LDVOnly
	default:
		return bp.Config{}, fmt.Errorf("service: unknown signature %q (want bbv, reuse_dist or combine)", s)
	}
	return cfg, nil
}

// ConfigFor maps a signature label and an optional MaxK override (0 keeps
// the paper default) onto an analysis config. MaxK changes only the
// clustering parameters, so two configs differing in MaxK share every
// cached region profile and differ only in k-means work and artifacts.
func ConfigFor(signature string, maxK int) (bp.Config, error) {
	cfg, err := ParseSignature(signature)
	if err != nil {
		return bp.Config{}, err
	}
	if maxK < 0 {
		return bp.Config{}, fmt.Errorf("service: max_k %d out of range (want >= 0)", maxK)
	}
	if maxK > 0 {
		cfg.Cluster.MaxK = maxK
	}
	return cfg, nil
}

// CachedSelection returns the cached selection artifact for the trace and
// config without computing anything: an error wrapping store.ErrNotFound
// when the analysis has not run yet.
func CachedSelection(st *store.Store, key string, cfg bp.Config) ([]byte, error) {
	return st.GetArtifact(key, SelectionArtifact(cfg))
}

// analyzeFlights tracks in-flight selection computations so concurrent
// callers — an analyze job racing an estimate job, or several estimate
// jobs with different warmup modes over a fresh trace — profile each
// (trace, config) at most once per process; late arrivals wait and then
// read the artifact the first caller stored.
var (
	analyzeMu      sync.Mutex
	analyzeFlights = make(map[string]chan struct{})
)

// AnalyzeCached returns the serialized barrierpoint selection for the
// stored trace, analyzing and caching on miss; the bytes parse with
// bp.LoadSelection. On a hit they come straight from the store — the trace
// is not opened, profiling does not run — cached is true and stats is zero.
// Computation is single-flight per (store, trace, config) within the
// process.
//
// A cold analysis replays no region: it reports its "profile" (or
// "profile-cache", when every region profile was served from the store) and
// "cluster" stage durations to obsrv, if non-nil, and where its region
// profiles came from in stats: a cold run right after a streaming upload has
// Computed==0 and IndexHit set. Cache hits and waits on another caller's
// in-flight computation report nothing — no profiling ran in this call. The
// observer never influences the computed selection.
func AnalyzeCached(st *store.Store, key string, cfg bp.Config, obsrv bp.StageObserver) (sel []byte, cached bool, stats ProfileStats, err error) {
	name := SelectionArtifact(cfg)
	flightKey := st.Root() + "|" + key + "|" + name
	for {
		if b, err := st.GetArtifact(key, name); err == nil {
			return b, true, ProfileStats{}, nil
		} else if !errors.Is(err, store.ErrNotFound) {
			return nil, false, ProfileStats{}, err
		}
		analyzeMu.Lock()
		if ch, ok := analyzeFlights[flightKey]; ok {
			analyzeMu.Unlock()
			<-ch // someone is computing this selection; wait, then re-check
			continue
		}
		ch := make(chan struct{})
		analyzeFlights[flightKey] = ch
		analyzeMu.Unlock()

		sel, stats, err := computeSelection(st, key, cfg, name, obsrv)
		analyzeMu.Lock()
		delete(analyzeFlights, flightKey)
		analyzeMu.Unlock()
		close(ch)
		return sel, false, stats, err
	}
}

// BindCached is the one road from a stored trace to an Analysis bound to it,
// taken by the pipeline's estimate jobs, bptool and campaign cells alike:
// the selection comes from AnalyzeCached (computed and cached on a miss;
// cached, stats and what obsrv hears of it are AnalyzeCached's), is parsed,
// and is bound to the store's copy of the trace — so every later stage
// streams exactly the bytes the key addresses. obsrv additionally receives
// "bind": parse, open and bind. The caller closes closer when it is done
// with the analysis' program.
func BindCached(st *store.Store, key string, cfg bp.Config, obsrv bp.StageObserver) (a *bp.Analysis, closer io.Closer, cached bool, stats ProfileStats, err error) {
	selBytes, cached, stats, err := AnalyzeCached(st, key, cfg, obsrv)
	if err != nil {
		return nil, nil, false, stats, err
	}
	t0 := time.Now()
	sel, err := bp.LoadSelection(bytes.NewReader(selBytes))
	if err != nil {
		return nil, nil, false, stats, err
	}
	f, err := st.OpenTrace(key)
	if err != nil {
		return nil, nil, false, stats, err
	}
	if a, err = sel.Bind(f); err != nil {
		f.Close()
		return nil, nil, false, stats, err
	}
	if obsrv != nil {
		obsrv("bind", time.Since(t0))
	}
	return a, f, cached, stats, nil
}

// computeSelection runs the cold path: profile (through the per-region
// profile cache), cluster, serialize, cache.
func computeSelection(st *store.Store, key string, cfg bp.Config, name string, obsrv bp.StageObserver) ([]byte, ProfileStats, error) {
	f, err := st.OpenTrace(key)
	if err != nil {
		return nil, ProfileStats{}, err
	}
	defer f.Close()
	a, stats, err := analyzeFn(st, key, f, cfg, obsrv)
	if err != nil {
		return nil, stats, err
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		return nil, stats, err
	}
	if err := st.PutArtifact(key, name, buf.Bytes()); err != nil {
		return nil, stats, err
	}
	return buf.Bytes(), stats, nil
}

// EstimateResult is the serialized form of a whole-program estimate, used
// both as the cached artifact and as the job result payload.
type EstimateResult struct {
	TimeNs   float64 `json:"time_ns"`
	Cycles   float64 `json:"cycles"`
	Instrs   float64 `json:"instrs"`
	DRAMAccs float64 `json:"dram_accs"`
	IPC      float64 `json:"ipc"`
	DRAMAPKI float64 `json:"dram_apki"`
	Warmup   string  `json:"warmup,omitempty"` // empty for ground truth
	Cores    int     `json:"cores"`
	Sockets  int     `json:"sockets"`
	// CI is the estimate's confidence report; nil for ground-truth results
	// and for artifacts cached by versions that predate intervals.
	CI *CIResult `json:"ci,omitempty"`
}

// CIResult is the confidence block attached to every estimate: symmetric
// interval half-widths at the stated confidence level, plus the adaptive
// sampler's effort accounting.
type CIResult struct {
	Confidence float64 `json:"confidence"`
	TimeHalfNs float64 `json:"time_half_ns"`
	TimeRel    float64 `json:"time_rel"`
	IPCHalf    float64 `json:"ipc_half"`
	APKIHalf   float64 `json:"apki_half"`
	// PointsSimulated counts the regions simulated in detail (selected
	// barrierpoints plus adaptive promotions).
	PointsSimulated int `json:"points_simulated"`
	// AdaptiveRounds counts promotion rounds (0 for a plain estimate).
	AdaptiveRounds int `json:"adaptive_rounds"`
	// TargetCI echoes the requested relative CI; TargetMet reports whether
	// the run reached it (false when the selection was exhausted first).
	TargetCI  float64 `json:"target_ci,omitempty"`
	TargetMet bool    `json:"target_met,omitempty"`
}

// newEstimateResult flattens a bp.Estimate with its derived metrics.
func newEstimateResult(e bp.Estimate, mc bp.MachineConfig, warmup string) EstimateResult {
	return EstimateResult{
		TimeNs:   e.TimeNs,
		Cycles:   e.Cycles,
		Instrs:   e.Instrs,
		DRAMAccs: e.DRAMAccs,
		IPC:      e.IPC(),
		DRAMAPKI: e.DRAMAPKI(),
		Warmup:   warmup,
		Cores:    mc.Cores(),
		Sockets:  mc.Sockets,
	}
}

// newIntervalResult is newEstimateResult plus the confidence block from an
// interval estimate and the adaptive run's effort accounting.
func newIntervalResult(ie reconstruct.IntervalEstimate, mc bp.MachineConfig, warmup string, points, rounds int, targetCI float64, met bool) EstimateResult {
	res := newEstimateResult(ie.Estimate, mc, warmup)
	res.CI = &CIResult{
		Confidence:      ie.Confidence,
		TimeHalfNs:      ie.Margin.TimeNs,
		TimeRel:         ie.RelTime(),
		IPCHalf:         ie.IPCInterval().Half,
		APKIHalf:        ie.APKIInterval().Half,
		PointsSimulated: points,
		AdaptiveRounds:  rounds,
		TargetCI:        targetCI,
		TargetMet:       met,
	}
	return res
}

// MachineFor sizes a Table I machine for a trace with the given thread
// count: sockets as given, or derived from the threads when 0. It
// validates that the machine's core count matches the trace.
func MachineFor(threads, sockets int) (bp.MachineConfig, error) {
	if sockets == 0 {
		if threads%8 != 0 {
			return bp.MachineConfig{}, fmt.Errorf("service: trace has %d threads, not a multiple of 8", threads)
		}
		sockets = threads / 8
	}
	mc := bp.TableIMachine(sockets)
	if mc.Cores() != threads {
		return bp.MachineConfig{}, fmt.Errorf("service: machine with %d sockets has %d cores but trace has %d threads",
			sockets, mc.Cores(), threads)
	}
	return mc, nil
}
