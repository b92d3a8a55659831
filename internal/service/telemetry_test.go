package service

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/sim"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
)

// metricValues renders the manager's registry as /metrics serves it and
// returns every sample keyed by its series name, labels included.
func metricValues(t *testing.T, m *Manager) map[string]float64 {
	t.Helper()
	var text strings.Builder
	if err := m.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}

// TestJobSpanAndStageTimings checks the coordinator half of the telemetry
// pipeline on a local estimate: the job gets a trace ID at Submit, its
// snapshot carries a finished span whose sequential stages partition the
// wall clock, and the per-job metrics advance.
func TestJobSpanAndStageTimings(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 1, 0)
	defer m.Shutdown(context.Background())

	snap, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Warmup: "mru"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.TraceID == "" {
		t.Fatal("Submit minted no trace ID")
	}
	done, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	if done.TraceID != snap.TraceID {
		t.Fatalf("trace ID changed across snapshots: %s vs %s", done.TraceID, snap.TraceID)
	}
	sp := done.Span
	if sp == nil {
		t.Fatal("finished job has no span")
	}
	if sp.TraceID != done.TraceID {
		t.Fatalf("span trace ID %s != job trace ID %s", sp.TraceID, done.TraceID)
	}
	if sp.End.IsZero() || sp.DurationNs <= 0 {
		t.Fatalf("span not finished: %+v", sp)
	}

	// A cold estimate profiles, clusters, binds the selection, and runs
	// the adaptive loop; every one of those stages must have been timed.
	got := make(map[string]bool)
	for _, stg := range sp.Stages {
		got[stg.Name] = true
		if stg.DurationNs < 0 {
			t.Fatalf("negative stage duration: %+v", stg)
		}
	}
	for _, want := range []string{"profile", "cluster", "bind", "simulate-points", "reconstruct"} {
		if !got[want] {
			t.Fatalf("span is missing stage %q; have %v", want, sp.Stages)
		}
	}
	// Sequential stages partition the job's wall clock: their sum cannot
	// exceed it (concurrent stages like trace-decode are excluded).
	if sum := sp.StageSumNs(); sum > sp.DurationNs {
		t.Fatalf("sequential stages (%d ns) exceed span wall clock (%d ns)", sum, sp.DurationNs)
	}
	// The MRU prefix pass overlaps detailed simulation inside
	// simulate-points, so it is recorded as a concurrent stage: present,
	// positive, no longer than the stage it runs inside, and not part of
	// the sequential partition.
	for _, stg := range sp.Stages {
		if stg.Name == "warmup-capture" && !stg.Concurrent {
			t.Fatalf("warmup-capture must be a concurrent stage: %+v", stg)
		}
	}
	capture, simulate := stageNs(sp, "warmup-capture"), stageNs(sp, "simulate-points")
	if capture <= 0 || capture > simulate {
		t.Fatalf("warmup-capture = %d ns, want within (0, simulate-points = %d ns]", capture, simulate)
	}
	// The job's decodes are on the trace-decode clock, the prefix pass's
	// included, though it reads past the replay cache.
	if stageNs(sp, "trace-decode") <= 0 {
		t.Fatalf("a cold mru estimate recorded no trace-decode: %+v", sp.Stages)
	}

	// The recorder holds the span under its trace ID, and the counters
	// advanced.
	if spans := m.Spans().ByTrace(done.TraceID); len(spans) == 0 {
		t.Fatal("span recorder has nothing under the job's trace ID")
	}
	vals := metricValues(t, m)
	if vals["bp_jobs_submitted_total"] < 1 || vals["bp_jobs_done_total"] < 1 {
		t.Fatalf("job counters did not advance: %v", vals)
	}
	if vals["bp_cold_analyses_total"] < 1 {
		t.Fatalf("cold analysis counter did not advance: %v", vals)
	}
}

// TestTraceDecodeIsTheJobsOwn: a span's trace-decode stage is its own job's
// decode time, the access-only reads of its prefix pass. An analyze, which
// replays no region, records none, though an mru+prev estimate decodes on
// another manager worker the whole time it runs. npb-ft's mru+prev selection
// is two runs, so the pass reads the regions before the second head (npb-is's
// is one run from region 0, before which the pass reads nothing).
func TestTraceDecodeIsTheJobsOwn(t *testing.T) {
	st, key := newStoreWith(t, "npb-ft")
	m := New(st, 2, 0)
	defer m.Shutdown(context.Background())
	// The estimate's selection is cached first, so only the analyze (max_k 5)
	// reaches the stub, which holds it running until the estimate is done.
	if _, _, _, err := AnalyzeCached(st, key, bp.DefaultConfig(), nil); err != nil {
		t.Fatal(err)
	}
	started, estimated := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(estimated) })
	defer release() // before Shutdown, which waits for the analyze
	orig := analyzeFn
	defer func() { analyzeFn = orig }()
	analyzeFn = func(st *store.Store, key string, f *tracefile.File, cfg bp.Config, obsrv bp.StageObserver) (*bp.Analysis, ProfileStats, error) {
		close(started)
		<-estimated
		return orig(st, key, f, cfg, obsrv)
	}
	an, err := m.Submit(Request{Kind: KindAnalyze, Trace: key, MaxK: 5})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	est := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "mru+prev"})
	release()
	if est.Status != StatusDone || stageNs(est.Span, "trace-decode") <= 0 {
		t.Fatalf("the estimate (status %s, error %q) recorded no trace-decode", est.Status, est.Error)
	}
	done := waitDone(t, m, an.ID)
	if done.Status != StatusDone {
		t.Fatalf("analyze job: status=%s error=%s", done.Status, done.Error)
	}
	if ns := stageNs(done.Span, "trace-decode"); ns != 0 {
		t.Errorf("the analyze's span has %d ns of trace-decode: another job's decodes", ns)
	}
}

// stageNs sums a span's stages of one name.
func stageNs(sp *obs.SpanData, name string) (ns int64) {
	for _, stg := range sp.Stages {
		if stg.Name == name {
			ns += stg.DurationNs
		}
	}
	return ns
}

// stageCount returns the occurrence count of a span's concurrent stage.
func stageCount(sp *obs.SpanData, name string) (n int) {
	for _, stg := range sp.Stages {
		if stg.Name == name && stg.Concurrent {
			n += stg.Count
		}
	}
	return n
}

// TestWarmupCaptureStageIsPerJob runs jobs side by side: a warm-up pass is
// timed by the job that ran it, so jobs without an MRU pass record no
// warmup-capture stage however they overlap one, no job's capture exceeds
// its own simulate-points, and the histogram holds one sample per pass.
// The per-point phases — reported from the pool's goroutines, so this is
// also their -race test — land on the job that simulated the points: one
// point-detail per point, and one observation per run (bp.Runs) of each
// warming phase its warm-up mode runs, which the span's runs and
// points_continued attributes count.
func TestWarmupCaptureStageIsPerJob(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 4, 0)
	defer m.Shutdown(context.Background())

	reqs := []Request{
		{Kind: KindSimulate, Trace: key},
		{Kind: KindEstimate, Trace: key, Warmup: "cold"},
		{Kind: KindEstimate, Trace: key, Warmup: "mru"},
		{Kind: KindEstimate, Trace: key, Warmup: "mru+prev"},
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		snap, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	// Every estimate uses the default selection of the one trace.
	selBytes, _, _, err := AnalyzeCached(st, key, bp.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := bp.LoadSelection(bytes.NewReader(selBytes))
	if err != nil || len(sel.Points) == 0 {
		t.Fatalf("selection has no points: %v", err)
	}
	points := len(sel.Points)
	regions := make([]int, points)
	for i, pt := range sel.Points {
		regions[i] = pt.Region
	}
	for i, id := range ids {
		done, err := m.Wait(context.Background(), id)
		if err != nil || done.Status != StatusDone {
			t.Fatalf("%+v: %v %s", reqs[i], err, done.Error)
		}
		capture, simulate := stageNs(done.Span, "warmup-capture"), stageNs(done.Span, "simulate-points")
		if mru := strings.HasPrefix(reqs[i].Warmup, "mru"); !mru && capture != 0 {
			t.Errorf("%+v ran no prefix pass but recorded %d ns of warmup-capture", reqs[i], capture)
		} else if mru && (capture <= 0 || capture > simulate) {
			t.Errorf("%+v: warmup-capture = %d ns, want within (0, simulate-points = %d ns]", reqs[i], capture, simulate)
		}
		want := map[string]int{"warm-replay": 0, "warm-prev": 0, "point-detail": 0}
		if reqs[i].Kind == KindEstimate {
			mode, err := bp.ParseWarmup(reqs[i].Warmup)
			if err != nil {
				t.Fatal(err)
			}
			runs := len(bp.Runs(regions, mode))
			if mode == bp.MRUPrevWarmup && runs == points {
				t.Fatalf("the mru+prev selection %v has no run of two points: the test shows nothing", regions)
			}
			attrs := done.Span.Attrs
			if attrs["runs"] != strconv.Itoa(runs) || attrs["points_continued"] != strconv.Itoa(points-runs) {
				t.Errorf("%+v: span attrs %v, want runs=%d points_continued=%d", reqs[i], attrs, runs, points-runs)
			}
			want["point-detail"] = points
			if mode != bp.ColdWarmup {
				want["warm-replay"] = runs
			}
			if mode == bp.MRUPrevWarmup {
				want["warm-prev"] = runs
			}
		}
		for stage, n := range want {
			if got := stageCount(done.Span, stage); got != n {
				t.Errorf("%+v: %d %s observations, want %d", reqs[i], got, stage, n)
			}
			if n > 0 && stageNs(done.Span, stage) <= 0 {
				t.Errorf("%+v: %s recorded no time", reqs[i], stage)
			}
		}
	}
	var prom strings.Builder
	if err := m.Metrics().WriteText(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `bp_job_stage_seconds_count{stage="warmup-capture"} 2`) {
		t.Errorf("want two warmup-capture observations, one per MRU pass:\n%s", prom.String())
	}
}

// TestProcessTelemetry: the process-level series the daemons register
// (obs.RegisterProcess) appear beside the manager's own, the runtime gauges
// read real values, and the machine free list's counters tell a reused
// machine from a built one — an estimate whose points find idle machines on
// the list counts one reuse per point and builds nothing.
func TestProcessTelemetry(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 1, 0)
	defer m.Shutdown(context.Background())
	obs.RegisterProcess(m.Metrics(), sim.FreeListStats) // as cmd/bpserve and cmd/bpworker do

	mc := bp.TableIMachine(1) // what an 8-thread trace's estimate runs on
	a, b := sim.Acquire(mc), sim.Acquire(mc)
	sim.Release(a)
	sim.Release(b) // a warm list: two idle machines for MaxK = 2's two points

	before := metricValues(t, m)
	for _, name := range []string{"bp_go_heap_live_bytes", "bp_go_memory_mapped_bytes", "bp_go_gc_cycles_total",
		"bp_go_gc_cpu_fraction", "bp_go_gc_last_pause_seconds", "bp_go_goroutines",
		"bp_sim_machines_built_total", "bp_sim_machines_reused_total"} {
		if _, ok := before[name]; !ok {
			t.Errorf("metric %s is not exported", name)
		}
	}
	if before["bp_go_goroutines"] < 1 || before["bp_go_memory_mapped_bytes"] <= 0 {
		t.Errorf("runtime gauges read nothing: goroutines %v, mapped bytes %v",
			before["bp_go_goroutines"], before["bp_go_memory_mapped_bytes"])
	}

	done := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "mru", MaxK: 2})
	if done.Status != StatusDone {
		t.Fatalf("estimate failed: %s", done.Error)
	}
	points := stageCount(done.Span, "point-detail")
	after := metricValues(t, m)
	built := after["bp_sim_machines_built_total"] - before["bp_sim_machines_built_total"]
	reused := after["bp_sim_machines_reused_total"] - before["bp_sim_machines_reused_total"]
	if points != 2 || built != 0 || reused != float64(points) {
		t.Errorf("%d points on a warm free list: %v machines built, %v reused; want 2 points, 0 built, 2 reused", points, built, reused)
	}
}

// TestFarmedJobTraceIDReachesWorkers is the end-to-end trace-propagation
// test: a farmed estimate's trace ID, minted at Submit, must come back on
// the worker-side farm-task spans — one trace ID across coordinator and
// fleet.
func TestFarmedJobTraceIDReachesWorkers(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	m := New(st, 2, 0)
	m.SetFarm(q)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go farm.RunLocalWorker(ctx, q, st, "telemetry-test")
	}
	defer m.Shutdown(context.Background())

	snap := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "mru", Exec: ExecFarm})
	if snap.Status != StatusDone {
		t.Fatalf("farmed job failed: %s", snap.Error)
	}
	if snap.TraceID == "" {
		t.Fatal("farmed job has no trace ID")
	}
	workerSpans := q.WorkerSpans().ByTrace(snap.TraceID)
	if len(workerSpans) == 0 {
		t.Fatalf("no worker spans carry the job's trace ID %s", snap.TraceID)
	}
	for _, ws := range workerSpans {
		if ws.Name != "farm-task" {
			t.Fatalf("unexpected worker span name %q", ws.Name)
		}
		var simulated bool
		for _, stg := range ws.Stages {
			if stg.Name == "simulate" && stg.DurationNs >= 0 {
				simulated = true
			}
		}
		if !simulated {
			t.Fatalf("worker span has no simulate stage: %+v", ws)
		}
	}

	// Queue instrumentation (wired by SetFarm) sees the completed tasks.
	vals := metricValues(t, m)
	if vals["bp_farm_tasks_completed_total"] < 1 {
		t.Fatalf("farm task counter did not advance: %v", vals)
	}
	if vals["bp_jobs_farmed_total"] != 1 {
		t.Fatalf("farmed jobs counter = %v, want 1", vals["bp_jobs_farmed_total"])
	}
}
