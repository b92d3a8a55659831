package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"barrierpoint/internal/obs"
	"barrierpoint/internal/service"
)

// stageSpans lays a span's sequential stages end to end from start, as
// children of parent, and returns each stage's span ID by name. Snapshots and
// worker spans give a stage's duration, not when it began.
func (r *runner) stageSpans(parent int, traceID, prefix string, start time.Time, stages []obs.Stage, layerOf func(stage string) string) map[string]int {
	ids := make(map[string]int, len(stages))
	at := start
	for _, st := range stages {
		if st.Concurrent {
			continue
		}
		end := at.Add(time.Duration(st.DurationNs))
		ids[st.Name] = r.tr.add(parent, traceID, prefix+st.Name, layerOf(st.Name), at, end)
		at = end
	}
	return ids
}

// stageSamples files each stage's duration, in ms, under its name.
func stageSamples(into map[string][]float64, stages []obs.Stage) {
	for _, st := range stages {
		into[st.Name] = append(into[st.Name], float64(st.DurationNs)/1e6)
	}
}

// importJob turns a job snapshot's own telemetry into spans under the
// client's wait: the job from creation to finish, and its stages from when it
// started running.
func (r *runner) importJob(parent int, snap service.Snapshot) {
	job := r.tr.add(parent, snap.TraceID, "job."+string(snap.Request.Kind), "service", snap.Created, snap.Finished)
	if snap.Span == nil {
		return
	}
	ids := r.stageSpans(job, snap.TraceID, "stage.", snap.Started, snap.Span.Stages, func(stage string) string {
		if layer, ok := stageLayer[stage]; ok {
			return layer
		}
		return "service"
	})
	if id, ok := ids["simulate-points"]; ok {
		r.pointSpans[snap.TraceID] = id
	}
}

// counters is one reading of everything the fleet counts; the timed phase
// is the difference between the reading before it and the one after.
type counters struct {
	metrics           map[string]float64 // bpserve's /metrics
	journal           float64            // job journal appends, from /healthz
	cpuServe, cpuWork float64            // CPU seconds of bpserve and of its workers
}

func (r *runner) readCounters() (counters, error) {
	var c counters
	var err error
	if c.metrics, err = scrapeMetrics(r.cl.hc, r.cl.base+"/metrics"); err != nil {
		return c, err
	}
	b, err := r.c.do(http.MethodGet, "/healthz", nil, http.StatusOK)
	if err != nil {
		return c, err
	}
	var h struct {
		Journal struct {
			Appends float64 `json:"appends"`
		} `json:"job_journal"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		return c, fmt.Errorf("GET /healthz: %w", err)
	}
	c.journal = h.Journal.Appends
	c.cpuServe, c.cpuWork = r.cl.cpuSeconds()
	return c, nil
}

// importWorkerSpans attaches each worker's farm-task spans to the
// simulate-points stage of the job whose trace ID they carry.
func (r *runner) importWorkerSpans() ([]obs.SpanData, error) {
	var all []obs.SpanData
	for _, wb := range r.cl.wbases {
		spans, err := workerSpans(r.cl.hc, wb)
		if err != nil {
			return nil, err
		}
		for _, sd := range spans {
			parent, ok := r.pointSpans[sd.TraceID]
			if !ok {
				continue // a warm-up or reference job's task
			}
			all = append(all, sd)
			task := r.tr.add(parent, sd.TraceID, "farm.task", "farm", sd.Start, sd.End)
			r.stageSpans(task, sd.TraceID, "farm.task.", sd.Start, sd.Stages, func(stage string) string {
				if stage == "simulate" {
					return "sim"
				}
				return "farm"
			})
		}
	}
	return all, nil
}

// layerMetrics fills values with every per-layer metric of the traced run
// and writes the run's spans to <out>/<workload>.trace.json.
func (r *runner) layerMetrics(values map[string]float64, p plan, before, after counters, reps int, buildSeconds float64) {
	sp := r.cfg.Spec
	n := float64(max(reps, 1))
	delta := func(series string) float64 { return after.metrics[series] - before.metrics[series] }

	// Counters of bpserve over the timed phase, per rep.
	hits, misses := delta("bp_replay_cache_hits_total"), delta("bp_replay_cache_misses_total")
	if hits+misses > 0 {
		values["tracefile.cache_hit_ratio"] = hits / (hits + misses)
	}
	values["service.profiles_cached"] = delta("bp_profile_cache_hits_total") / n
	values["service.profiles_computed"] = delta("bp_profile_computed_total") / n
	values["service.cold_analyses"] = delta("bp_cold_analyses_total") / n
	values["service.job_cache_hits"] = delta("bp_job_cache_hits_total") / n
	values["service.journal_appends"] = (after.journal - before.journal) / n
	values["store.profile_puts"] = median(r.samples["store.profile_puts"])
	values["farm.requeues"] = delta("bp_farm_leases_expired_total") + delta("bp_farm_task_retries_total")
	if farmed := delta("bp_jobs_farmed_total"); farmed > 0 {
		values["farm.tasks_per_job"] = delta("bp_farm_tasks_enqueued_total") / farmed
	}
	for _, wb := range r.cl.wbases {
		wm, err := scrapeMetrics(r.cl.hc, wb+"/metrics")
		if err != nil {
			r.failCheck("scraping worker metrics: %v", err)
			continue
		}
		values["farm.rpc_retries"] += wm["bp_rpc_retries_total"]
	}
	values["bpserve.cpu_s"] = after.cpuServe
	values["bpworker.cpu_s"] = after.cpuWork
	values["client.build_s"] = buildSeconds

	// Job telemetry the snapshots already carry.
	stages := make(map[string][]float64)
	var queueWait, overhead, pollLag []float64
	for _, j := range r.jobs {
		queueWait = append(queueWait, j.snap.Started.Sub(j.snap.Created).Seconds()*1e3)
		pollLag = append(pollLag, j.observed.Sub(j.snap.Finished).Seconds()*1e3)
		if j.snap.Span == nil {
			continue
		}
		overhead = append(overhead, (j.latency.Seconds()-float64(j.snap.Span.StageSumNs())/1e9)*1e3)
		stageSamples(stages, j.snap.Span.Stages)
	}
	values["service.queue_wait_ms"] = median(queueWait)
	values["service.job_overhead_ms"] = median(overhead)
	values["client.poll_lag_ms"] = median(pollLag)
	for _, name := range reportedStages {
		values["service.stage."+name+"_ms"] = median(stages[name])
	}

	// Worker-side task spans.
	tasks, err := r.importWorkerSpans()
	if err != nil {
		r.failCheck("fetching worker spans: %v", err)
	}
	var taskMs []float64
	taskStage := make(map[string][]float64)
	for _, sd := range tasks {
		taskMs = append(taskMs, float64(sd.DurationNs)/1e6)
		stageSamples(taskStage, sd.Stages)
	}
	values["farm.task_ms"] = median(taskMs)
	values["farm.task_fetch_ms"] = median(taskStage["fetch"])
	values["farm.task_simulate_ms"] = median(taskStage["simulate"])
	values["farm.task_upload_ms"] = median(taskStage["upload"])

	// Client-side views of the traced run.
	pipeline := r.samples["pipeline_ms"]
	if beyond(len(pipeline), 90) >= 10 {
		values["client.pipeline_p90_ms"] = percentile(pipeline, 90)
	}
	values["client.full_sim_ms"] = median(r.samples["full_sim_ms"])
	if est := median(r.samples["estimate_ms"]); est > 0 {
		values["client.speedup_host"] = values["client.full_sim_ms"] / est
	}
	if base, ok := untracedPipelineMs(r.cfg.OutDir, sp.Name); ok && base > 0 {
		values["client.trace_overhead_pct"] = (median(r.atRef["pipeline_ms"]) - base) / base * 100
	}

	// The HTTP floor, then the in-process probes of each layer on the
	// workload's first trace.
	var floor []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if _, err := r.c.do(http.MethodGet, "/healthz", nil, http.StatusOK); err == nil {
			floor = append(floor, float64(time.Since(t0).Nanoseconds())/1e3)
		}
	}
	values["bpserve.http_floor_us"] = median(floor)
	r.attempted++
	if err := runProbes(r.tr, values, p.Warmup[0], sp, filepath.Join(r.cl.dir, "probe")); err != nil {
		r.fail("layer probes: %v", err)
	}

	// Self time per layer of the pipeline spans, per rep; probe spans are
	// kept apart under their own "probe." layers.
	spans := r.tr.all()
	byLayer := selfByLayer(spans)
	for _, layer := range selfLayers {
		values["self."+layer+"_ms"] = byLayer[layer] / n
	}
	if err := writeTraceFile(filepath.Join(r.cfg.OutDir, sp.Name+".trace.json"), traceFile{
		Workload: sp.Name, Seed: r.cfg.Seed, Reps: reps, SelfMsLayer: byLayer, Spans: spans,
	}); err != nil {
		r.failCheck("writing the trace file: %v", err)
	}
}

// resultPath is where the last untraced record of a workload is kept, for
// the traced run to measure its overhead against.
func resultPath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".result.json")
}

func untracedPipelineMs(outDir, workload string) (float64, bool) {
	recs, err := readResults(resultPath(outDir, workload))
	if err != nil || recs[0].Trace {
		return 0, false
	}
	m, ok := recs[0].Metrics["pipeline_ms"]
	return m.Value, ok
}
