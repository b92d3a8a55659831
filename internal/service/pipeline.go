package service

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/adaptive"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

// Kind is a job type.
type Kind string

// Job kinds: the three expensive pipeline stages a client can request.
const (
	// KindAnalyze profiles and clusters a trace, producing its selection.
	KindAnalyze Kind = "analyze"
	// KindSimulate runs the ground-truth full detailed simulation.
	KindSimulate Kind = "simulate"
	// KindEstimate simulates only the barrierpoints (analyzing first if no
	// selection is cached) and reconstructs whole-program metrics.
	KindEstimate Kind = "estimate"
)

// Request describes a job to run against a stored trace.
type Request struct {
	Kind  Kind   `json:"kind"`
	Trace string `json:"trace"` // content key of a stored trace
	// Signature selects the analysis config: "bbv", "reuse_dist" or
	// "combine" (default).
	Signature string `json:"signature,omitempty"`
	// MaxK overrides the clustering's maximum cluster count for analyze and
	// estimate jobs; 0 keeps the paper default. Re-clustering a profiled
	// trace with a different MaxK reuses every cached region profile and
	// pays only k-means (the profile cache is keyed by region content, not
	// by clustering parameters).
	MaxK int `json:"max_k,omitempty"`
	// Sockets sizes the Table I machine for simulate/estimate; 0 derives
	// it from the trace's thread count.
	Sockets int `json:"sockets,omitempty"`
	// Warmup is the estimate warmup mode: "cold" (default), "mru" or
	// "mru+prev".
	Warmup string `json:"warmup,omitempty"`
	// Exec selects how an estimate's barrierpoint simulations run:
	// "auto" (default: farm when live workers are registered, local
	// otherwise), "local" (in-process pool), or "farm" (force the
	// distributed queue; such a job waits for workers to join).
	Exec string `json:"exec,omitempty"`
	// TargetCI, for estimate jobs, asks for adaptive sampling: additional
	// regions are promoted to detailed simulation until the runtime
	// estimate's 95% confidence interval has a relative half-width of at
	// most this value (e.g. 0.02 for ±2%), or the selection is exhausted.
	// 0 runs the standard one-point-per-cluster estimate; intervals are
	// reported either way.
	TargetCI float64 `json:"ci,omitempty"`
}

// Exec mode labels for Request.Exec.
const (
	ExecAuto  = "auto"
	ExecLocal = "local"
	ExecFarm  = "farm"
)

// plan is a request parsed and normalized: everything run needs to compute
// the job (kind, trace, analysis config, warmup mode, the exec mode with its
// default filled in, the CI target, and the machine a simulate or estimate
// runs on — zero for an analyze), plus the two names the lifecycle works
// with: the key identical in-flight requests coalesce on, and the store
// artifact the result lands in — which the journal's done record points at
// instead of embedding bytes, and which recovery probes for work that
// finished before a crash.
type plan struct {
	kind     Kind
	trace    string
	cfg      bp.Config
	mode     bp.WarmupMode
	exec     string
	targetCI float64
	mc       bp.MachineConfig
	dedup    string
	artifact string
}

// pipeline is the half of the service that knows what a job computes:
// request validation and planning, the analyze / simulate / estimate
// execution over the store's artifact caches, the choice of point runner,
// and the telemetry of all of it. It knows nothing of job IDs, queues,
// deduplication, retention or the journal — the Manager (manager.go) owns
// those and reaches this half through two calls: plan and run.
type pipeline struct {
	st *store.Store
	// replay is the shared region replay cache: every job that replays a
	// stored trace — a cold analyze, an estimate's warmup and point
	// simulations, a ground-truth simulate — decodes regions through it,
	// keyed by trace content. An estimate+simulate pair over one trace
	// therefore decodes each region once, not once per job.
	replay *bp.ReplayCache
	farm   *farm.Queue // nil until SetFarm; estimates then stay local

	coldAnalyses, farmed, farmFallbacks, adaptiveRounds, adaptivePromoted atomic.Int64
	profileCacheHits, profileComputed, ingestedTraces, ingestedProfiles   atomic.Int64
	digestIndexHits, digestIndexMisses                                    atomic.Int64

	// jobDur and stageDur are the per-kind job and per-stage latency
	// histograms.
	jobDur, stageDur *obs.HistogramVec
}

// newPipeline builds the compute half over st and bridges its counters and
// its replay cache into reg. The atomics remain the single source of truth;
// every family reads them at scrape time.
func newPipeline(st *store.Store, r *obs.Registry) *pipeline {
	p := &pipeline{st: st, replay: bp.NewReplayCache(0)} // DefaultReplayCacheBytes
	counterFunc(r, "bp_cold_analyses_total", "Profiling+clustering runs (selection cache misses).", &p.coldAnalyses)
	counterFunc(r, "bp_jobs_farmed_total", "Estimate jobs whose points ran on the distributed queue.", &p.farmed)
	counterFunc(r, "bp_farm_fallbacks_total", "Auto-mode estimates that fell back to local execution after a farm error.", &p.farmFallbacks)
	counterFunc(r, "bp_adaptive_rounds_total", "Adaptive promotion rounds across all CI-targeted estimates.", &p.adaptiveRounds)
	counterFunc(r, "bp_adaptive_promoted_total", "Regions promoted to detailed simulation by the adaptive sampler.", &p.adaptivePromoted)
	counterFunc(r, "bp_profile_cache_hits_total", "Region profiles served from the content-addressed profile cache.", &p.profileCacheHits)
	counterFunc(r, "bp_profile_computed_total", "Region profiles computed (and cached) on profile-cache misses.", &p.profileComputed)
	counterFunc(r, "bp_region_digest_index_hits_total", "Cold analyses that took their region digests from the trace's digest index (no trace chunk read).", &p.digestIndexHits)
	counterFunc(r, "bp_region_digest_index_misses_total", "Cold analyses that hashed the trace file for their region digests (index missing or invalid; rewritten).", &p.digestIndexMisses)
	counterFunc(r, "bp_ingest_traces_total", "Traces ingested through the streaming upload path.", &p.ingestedTraces)
	counterFunc(r, "bp_ingest_profiles_total", "Region profiles stored during streaming ingest, while the upload was still transferring.", &p.ingestedProfiles)

	r.CounterFunc("bp_replay_cache_hits_total", "Replay cache region hits.",
		func() float64 { return float64(p.replay.Stats().Hits) })
	r.CounterFunc("bp_replay_cache_misses_total", "Replay cache region misses (decodes).",
		func() float64 { return float64(p.replay.Stats().Misses) })
	r.CounterFunc("bp_replay_cache_evictions_total", "Replay cache LRU evictions.",
		func() float64 { return float64(p.replay.Stats().Evictions) })
	r.CounterFunc("bp_replay_decode_seconds_total", "Cumulative wall-clock seconds spent decoding regions.",
		func() float64 { return float64(p.replay.Stats().DecodeNs) / 1e9 })
	r.GaugeFunc("bp_replay_cache_bytes", "Decoded bytes currently held by the replay cache.",
		func() float64 { return float64(p.replay.Stats().Bytes) })
	r.GaugeFunc("bp_replay_cache_max_bytes", "Replay cache byte budget.",
		func() float64 { return float64(p.replay.Stats().MaxBytes) })
	r.GaugeFunc("bp_replay_cache_entries", "Regions currently held by the replay cache.",
		func() float64 { return float64(p.replay.Stats().Entries) })

	p.jobDur = r.HistogramVec("bp_job_seconds", "Job wall-clock latency by kind.",
		"kind", obs.DefLatencyBuckets)
	p.stageDur = r.HistogramVec("bp_job_stage_seconds", "Pipeline stage latency by stage.",
		"stage", obs.DefLatencyBuckets)
	return p
}

// SetReplayCacheBytes resizes the manager's region replay cache budget:
// 0 restores the default (bp.DefaultReplayCacheBytes), negative disables
// caching. Call it once, before the first Submit.
func (m *Manager) SetReplayCacheBytes(n int64) {
	if n < 0 {
		m.pipe.replay = nil
		return
	}
	m.pipe.replay = bp.NewReplayCache(n)
}

// ReplayCacheStats returns the replay cache's activity counters (zeros
// when caching is disabled).
func (m *Manager) ReplayCacheStats() bp.ReplayCacheStats { return m.pipe.replay.Stats() }

// counterFunc registers a counter family that reads a at scrape time.
func counterFunc(r *obs.Registry, name, help string, a *atomic.Int64) {
	r.CounterFunc(name, help, func() float64 { return float64(a.Load()) })
}

// plan parses and normalizes a request. The dedup key covers exactly the
// parameters the kind consumes — an analyze ignores warmup and sockets, a
// simulate ignores warmup and the analysis config, and sockets are
// normalized against the trace's thread count — so requests that differ only
// in irrelevant or equivalent fields coalesce onto one job.
func (pl *pipeline) plan(req Request) (plan, error) {
	if !pl.st.HasTrace(req.Trace) {
		return plan{}, fmt.Errorf("service: trace %q: %w", req.Trace, store.ErrNotFound)
	}
	cfg, err := ConfigFor(req.Signature, req.MaxK)
	if err != nil {
		return plan{}, err
	}
	if req.MaxK > 0 && req.Kind == KindSimulate {
		// Ground truth does not cluster; rejecting keeps the dedup key honest.
		return plan{}, fmt.Errorf("service: max_k applies only to analyze and estimate jobs, not %q", req.Kind)
	}
	mode, err := bp.ParseWarmup(req.Warmup)
	if err != nil {
		return plan{}, err
	}
	if req.TargetCI < 0 || req.TargetCI >= 1 {
		return plan{}, fmt.Errorf("service: target ci %v out of range [0, 1)", req.TargetCI)
	}
	if req.TargetCI > 0 && req.Kind != KindEstimate {
		return plan{}, fmt.Errorf("service: target ci applies only to estimate jobs, not %q", req.Kind)
	}
	switch req.Exec {
	case "", ExecAuto, ExecLocal:
	case ExecFarm:
		if req.Kind != KindEstimate {
			// Analyze is one profiling pass and simulate is a sequential
			// ground-truth run — neither decomposes into farmable points.
			// Rejecting rather than silently running locally keeps the
			// API honest.
			return plan{}, fmt.Errorf("service: exec %q applies only to estimate jobs, not %q", req.Exec, req.Kind)
		}
		if pl.farm == nil {
			return plan{}, errors.New("service: farm execution requested but no farm queue is attached")
		}
	default:
		return plan{}, fmt.Errorf("service: unknown exec mode %q (want auto, local or farm)", req.Exec)
	}
	p := plan{kind: req.Kind, trace: req.Trace, cfg: cfg, mode: mode, exec: cmp.Or(req.Exec, ExecAuto), targetCI: req.TargetCI}
	switch req.Kind {
	case KindAnalyze:
		p.dedup = fmt.Sprintf("%s|%s|%s", req.Kind, req.Trace, store.HashJSON(cfg))
		p.artifact = SelectionArtifact(cfg)
	case KindSimulate, KindEstimate:
		f, err := pl.st.OpenTrace(req.Trace)
		if err != nil {
			return plan{}, err
		}
		threads := f.Threads()
		f.Close()
		mc, err := MachineFor(threads, req.Sockets)
		if err != nil {
			return plan{}, err
		}
		p.mc = mc
		if req.Kind == KindSimulate {
			p.dedup = fmt.Sprintf("%s|%s|%d", req.Kind, req.Trace, mc.Sockets)
			p.artifact = ActualArtifact(mc)
		} else {
			// Exec modes produce bit-identical results but very different
			// latencies (a forced farm job waits for workers), so they do
			// not coalesce; the estimate artifact still dedups the actual
			// compute across modes. The CI target is part of the identity:
			// tighter targets simulate more regions and land on different
			// artifacts.
			p.dedup = fmt.Sprintf("%s|%s|%s|%d|%s|%s|%g", req.Kind, req.Trace, store.HashJSON(cfg), mc.Sockets, mode, p.exec, req.TargetCI)
			p.artifact = AdaptiveEstimateArtifact(cfg, mc, mode, req.TargetCI)
		}
	default:
		return plan{}, fmt.Errorf("service: unknown job kind %q", req.Kind)
	}
	return p, nil
}

// run computes one planned job, timing it into span and the histograms, and
// returns the result bytes. The cached return value reports that the job's
// own result artifact was already in the store.
func (pl *pipeline) run(p plan, span *obs.Span) (json.RawMessage, bool, error) {
	// Region decoding happens inside profiling and simulation, so its time
	// is attributed as a concurrent stage: the delta in the replay cache's
	// cumulative decode clock across the job's execution. The clock is
	// shared, so jobs running at the same time over one cache may attribute
	// each other's decodes — fine for a concurrent (non-partition) stage.
	t0, decode0 := time.Now(), pl.replay.Stats().DecodeNs
	result, cached, err := pl.execute(p, span)
	if d := pl.replay.Stats().DecodeNs - decode0; d > 0 {
		span.ObserveConcurrent("trace-decode", time.Duration(d))
	}
	pl.jobDur.With(string(p.kind)).ObserveDuration(time.Since(t0))
	return result, cached, err
}

// execute dispatches on the job kind.
func (pl *pipeline) execute(p plan, span *obs.Span) (json.RawMessage, bool, error) {
	// One job's stage timings feed both its span and the per-stage histogram.
	obsrv := func(stage string, d time.Duration) {
		span.Observe(stage, d)
		pl.stageDur.With(stage).ObserveDuration(d)
	}
	if p.kind == KindAnalyze {
		sel, cached, stats, err := AnalyzeCached(pl.st, p.trace, p.cfg, pl.replay, obsrv)
		if err != nil {
			return nil, false, err
		}
		pl.recordProfileStats(span, cached, stats)
		return json.RawMessage(sel), cached, nil
	}

	// A simulate or an estimate: its machine and result artifact are the
	// plan's, and the artifact may already be stored.
	if b, err := pl.st.GetArtifact(p.trace, p.artifact); err == nil {
		return json.RawMessage(b), true, nil
	} else if !errors.Is(err, store.ErrNotFound) {
		return nil, false, err
	}
	if p.kind == KindSimulate {
		f, err := pl.st.OpenTrace(p.trace)
		if err != nil {
			return nil, false, err
		}
		defer f.Close()
		sim0 := time.Now()
		full, err := bp.SimulateFull(pl.replay.Program(f, p.trace), p.mc)
		obsrv("simulate-full", time.Since(sim0))
		if err != nil {
			return nil, false, err
		}
		return pl.putResult(p, newEstimateResult(bp.ActualFrom(full), p.mc, ""))
	}

	// The selection is bound to the cached replay view: warmup capture and
	// the local point runner then replay decoded regions from memory.
	a, closer, selCached, stats, err := BindCached(pl.st, p.trace, p.cfg, pl.replay, obsrv)
	if err != nil {
		return nil, false, err
	}
	defer closer.Close()
	pl.recordProfileStats(span, selCached, stats)
	// The adaptive controller drives the same runner the plain estimate
	// would use, so promotions farm out (and cache per point) exactly
	// like the initial barrierpoints. With no target it just attaches
	// intervals to the standard one-point-per-cluster estimate.
	res, err := adaptive.Run(a, pl.pointRunner(p, span), p.mc, p.mode,
		adaptive.Options{TargetRel: p.targetCI, Observer: obsrv})
	if err != nil {
		return nil, false, err
	}
	pl.adaptiveRounds.Add(int64(len(res.Rounds)))
	pl.adaptivePromoted.Add(int64(len(res.Simulated) - len(a.Selection.Points)))
	return pl.putResult(p, newIntervalResult(
		res.Estimate, p.mc, p.mode.String(), len(res.Simulated), len(res.Rounds), p.targetCI, res.Met))
}

// recordProfileStats counts a cold analysis (a selection served from the
// store is not one, and records nothing) and attributes its profile-cache
// activity to the job's span (profiles_cached / profiles_computed, the
// numbers the CI smoke greps for, and region_digests: index when the trace
// file went unread, hashed otherwise) and to the service-wide counters.
func (pl *pipeline) recordProfileStats(span *obs.Span, cached bool, stats ProfileStats) {
	if cached {
		return
	}
	pl.coldAnalyses.Add(1)
	span.SetAttr("profiles_cached", fmt.Sprintf("%d", stats.Cached))
	span.SetAttr("profiles_computed", fmt.Sprintf("%d", stats.Computed))
	src, n := "hashed", &pl.digestIndexMisses
	if stats.IndexHit {
		src, n = "index", &pl.digestIndexHits
	}
	span.SetAttr("region_digests", src)
	n.Add(1)
	pl.profileCacheHits.Add(int64(stats.Cached))
	pl.profileComputed.Add(int64(stats.Computed))
}

// pointRunner picks the execution strategy for a job's barrierpoint
// simulations: the distributed queue when the job forces it or when auto
// mode sees live workers, otherwise the local pool — in both cases behind
// the store's per-point result cache, so farm runs, local runs and bptool
// -cache runs all share per-point work. Farm tasks themselves dedup
// against the same artifacts inside the queue.
func (pl *pipeline) pointRunner(p plan, span *obs.Span) bp.PointRunner {
	// The local pool reports what it runs for this job: the MRU prefix pass
	// (warmup-capture) and, per simulated point, the warm-replay, warm-prev
	// and point-detail phases. All of it happens inside simulate-points and
	// overlaps, so these are concurrent span stages, timed by the call that
	// ran them — never another job's work — and they also feed the per-stage
	// histogram. The point phases arrive from the pool's goroutines; the span
	// and the histogram are both safe for that.
	local := &farm.CachedRunner{St: pl.st, TraceKey: p.trace, Inner: bp.LocalRunner{
		Observer: func(stage string, d time.Duration) {
			span.ObserveConcurrent(stage, d)
			pl.stageDur.With(stage).ObserveDuration(d)
		},
	}}
	if pl.farm == nil || p.exec == ExecLocal || p.exec == ExecAuto && pl.farm.LiveWorkers() == 0 {
		return local
	}
	pl.farmed.Add(1)
	fr := farm.QueueRunner{Q: pl.farm, TraceKey: p.trace, TraceID: span.Data().TraceID}
	if p.exec == ExecFarm {
		// Forced farm mode fails loudly rather than quietly running local.
		return fr
	}
	// Auto mode degrades gracefully: a farm-side failure (queue closed,
	// task attempts exhausted against a flaky fleet) falls back to local
	// execution instead of failing the job. Points that completed on the
	// farm are already cached per artifact, so the fallback recomputes
	// only what the fleet never finished.
	return &fallbackRunner{primary: fr, fallback: local, onFallback: func(err error) {
		pl.farmFallbacks.Add(1)
		span.SetAttr("farm_fallback", err.Error())
	}}
}

// fallbackRunner tries its primary point runner and, on error, reruns
// the request on the fallback (auto-mode farm → local degradation).
type fallbackRunner struct {
	primary, fallback bp.PointRunner
	onFallback        func(error)
}

func (r *fallbackRunner) RunPoints(p bp.Program, regions []int, mc bp.MachineConfig, mode bp.WarmupMode) (map[int]bp.RegionResult, error) {
	out, err := r.primary.RunPoints(p, regions, mc, mode)
	if err == nil {
		return out, nil
	}
	r.onFallback(err)
	return r.fallback.RunPoints(p, regions, mc, mode)
}

// putResult serializes, caches and returns a job's result artifact.
func (pl *pipeline) putResult(p plan, v any) (json.RawMessage, bool, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, false, err
	}
	if err := pl.st.PutArtifact(p.trace, p.artifact, b); err != nil {
		return nil, false, err
	}
	return json.RawMessage(b), false, nil
}
