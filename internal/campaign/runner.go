package campaign

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/service"
	"barrierpoint/internal/stats"
	"barrierpoint/internal/workload"
)

// newWorkload constructs a benchmark, turning workload.New's panic on
// unknown names into an error (Validate normally catches this earlier).
func newWorkload(name string, threads int, scale float64) (bp.Program, error) {
	if !workload.Exists(name) {
		return nil, fmt.Errorf("campaign: unknown benchmark %q", name)
	}
	return workload.New(name, threads, workload.WithScale(scale)), nil
}

// CellRunner computes one cell's result. Implementations must be pure in
// the cell's coordinates: the same cell always yields the same result, no
// matter when, where or how often it runs.
type CellRunner interface {
	RunCell(c Cell) (CellResult, error)
}

// ServiceRunner dispatches cells through a service.Manager over its
// content-addressed store. Traces are recorded into the store once per
// workload × thread count; each cell then becomes one estimate job (with
// the spec's exec mode: local pool, farm queue, or auto) plus one
// ground-truth simulate job. Every expensive stage lands in the store's
// artifact cache, so re-running a cell — after a crash, or from a sibling
// campaign sharing the store — is answered from artifacts, not recomputed.
type ServiceRunner struct {
	M *service.Manager
	// Exec is forwarded to estimate requests: "", "auto", "local" or
	// "farm". It changes where work runs, never what it produces.
	Exec string
	// TargetCI is forwarded to estimate requests (see Spec.TargetCI);
	// callers must set it from the spec that hashed the manifest, since a
	// different target produces different cell results.
	TargetCI float64
	// Log, when non-nil, receives one line per finished service job with
	// the job's ID, telemetry trace ID and wall clock — the handle for
	// correlating a campaign cell with coordinator spans (/v1/jobs/{id},
	// bptool trace) and worker-side farm-task spans. Telemetry only: cell
	// results and the manifest never carry trace IDs.
	Log io.Writer

	mu     sync.Mutex
	traces map[string]string // "<workload>/<threads>" → trace content key
}

// Seed primes the runner's trace-key cache from a manifest, skipping keys
// the store no longer holds, so a resumed campaign re-records nothing
// that survived the interruption.
func (r *ServiceRunner) Seed(traces map[string]string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.traces == nil {
		r.traces = make(map[string]string)
	}
	for k, key := range traces {
		if r.M.Store().HasTrace(key) {
			r.traces[k] = key
		}
	}
}

// Traces returns a copy of the trace keys recorded so far, for persisting
// into a manifest.
func (r *ServiceRunner) Traces() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.traces))
	for k, v := range r.traces {
		out[k] = v
	}
	return out
}

// ensureTrace records the cell's workload into the store (once per
// workload × thread count — workload generation is deterministic, so the
// content key is stable) and returns its content key. The recording goes
// through the manager's streaming ingest, so per-region profiles are
// computed and cached while the trace is still being generated: the
// estimate jobs that follow start with a warm profile cache.
func (r *ServiceRunner) ensureTrace(c Cell) (string, error) {
	id := fmt.Sprintf("%s/%d", c.Workload, c.Threads)
	r.mu.Lock()
	if r.traces == nil {
		r.traces = make(map[string]string)
	}
	if key, ok := r.traces[id]; ok {
		r.mu.Unlock()
		return key, nil
	}
	r.mu.Unlock()

	prog, err := newWorkload(c.Workload, c.Threads, c.Scale)
	if err != nil {
		return "", err
	}
	res, err := r.M.IngestProgram(prog)
	if err != nil {
		return "", fmt.Errorf("campaign: recording %s: %w", id, err)
	}
	key := res.Key
	r.mu.Lock()
	r.traces[id] = key
	r.mu.Unlock()
	return key, nil
}

// RunCell computes one cell: estimate and ground truth as service jobs,
// accuracy metrics from their results, speedups from the cached
// selection.
func (r *ServiceRunner) RunCell(c Cell) (CellResult, error) {
	key, err := r.ensureTrace(c)
	if err != nil {
		return CellResult{}, err
	}

	// Estimate and ground truth are independent; submit both and let the
	// manager's pool overlap them. The manager dedups against sibling
	// cells sharing a machine config (the simulate job is warmup- and
	// signature-independent).
	estJob, err := r.submit(service.Request{
		Kind:      service.KindEstimate,
		Trace:     key,
		Signature: c.Signature,
		MaxK:      c.MaxK,
		Sockets:   c.Sockets,
		Warmup:    c.Warmup,
		Exec:      r.Exec,
		TargetCI:  r.TargetCI,
	})
	if err != nil {
		return CellResult{}, err
	}
	actJob, actErr := r.submit(service.Request{
		Kind:    service.KindSimulate,
		Trace:   key,
		Sockets: c.Sockets,
	})
	// Wait for whatever was submitted before reporting a failure: no job
	// of a cell is still running when the cell returns.
	est, err := r.wait(estJob)
	var act service.EstimateResult
	if actErr == nil {
		act, actErr = r.wait(actJob)
	}
	if err = cmp.Or(err, actErr); err != nil {
		return CellResult{}, err
	}

	// The Fig. 9 instruction-count reductions come from the selection the
	// estimate job cached, through the binder that job ran — no profiling,
	// no simulation, just the stored artifact bound to the stored trace.
	cfg, err := service.ConfigFor(c.Signature, c.MaxK)
	if err != nil {
		return CellResult{}, err
	}
	a, closer, _, _, err := service.BindCached(r.M.Store(), key, cfg, nil)
	if err != nil {
		return CellResult{}, fmt.Errorf("campaign: binding selection for cell %s: %w", c.ID(), err)
	}
	defer closer.Close()
	res := CellResult{
		TraceKey:        key,
		EstTimeNs:       est.TimeNs,
		ActTimeNs:       act.TimeNs,
		EstAPKI:         est.DRAMAPKI,
		ActAPKI:         act.DRAMAPKI,
		RunErrPct:       stats.AbsPctErr(est.TimeNs, act.TimeNs),
		APKIDelta:       math.Abs(est.DRAMAPKI - act.DRAMAPKI),
		SerialSpeedup:   a.SerialSpeedup(),
		ParallelSpeedup: a.ParallelSpeedup(),
	}
	// Artifacts cached by versions without intervals carry no CI block;
	// the cell then simply renders without error bars.
	if est.CI != nil {
		res.CIHalfNs = est.CI.TimeHalfNs
		res.CIRel = est.CI.TimeRel
		res.PointsSimulated = est.CI.PointsSimulated
		res.AdaptiveRounds = est.CI.AdaptiveRounds
		res.TargetMet = est.CI.TargetMet
	}
	return res, nil
}

// submit files one request with the manager.
func (r *ServiceRunner) submit(req service.Request) (service.Snapshot, error) {
	snap, err := r.M.Submit(req)
	if err != nil {
		return snap, fmt.Errorf("campaign: submitting %s job: %w", req.Kind, err)
	}
	return snap, nil
}

// wait blocks until a submitted job is terminal and decodes its result.
func (r *ServiceRunner) wait(job service.Snapshot) (service.EstimateResult, error) {
	snap, err := r.M.Wait(context.Background(), job.ID)
	if err != nil {
		return service.EstimateResult{}, err
	}
	if r.Log != nil {
		dur := snap.Finished.Sub(snap.Started).Round(time.Millisecond)
		fmt.Fprintf(r.Log, "job %s %s trace_id=%s status=%s dur=%v\n",
			snap.ID, job.Request.Kind, snap.TraceID, snap.Status, dur)
	}
	if snap.Status != service.StatusDone {
		return service.EstimateResult{}, fmt.Errorf("campaign: %s job %s failed: %s", job.Request.Kind, snap.ID, snap.Error)
	}
	var res service.EstimateResult
	if err := json.Unmarshal(snap.Result, &res); err != nil {
		return service.EstimateResult{}, fmt.Errorf("campaign: parsing %s result: %w", job.Request.Kind, err)
	}
	return res, nil
}
