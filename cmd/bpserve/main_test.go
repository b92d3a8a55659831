package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/service"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// newTestServer builds a server over a fresh store and returns it with its
// base URL and manager.
func newTestServer(t *testing.T) (*httptest.Server, *service.Manager) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := service.New(st, 2, 0)
	ts := httptest.NewServer(newServer(st, mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Shutdown(context.Background())
	})
	return ts, mgr
}

// doJSON performs a request and decodes the JSON response into out.
func doJSON(t *testing.T, method, url string, body []byte, wantCode int, out any) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s = %d, want %d\nbody: %s", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s %s response: %v\nbody: %s", method, url, err, raw)
		}
	}
}

// jsonEqual compares two JSON documents ignoring whitespace.
func jsonEqual(t *testing.T, a, b []byte) bool {
	t.Helper()
	var ca, cb bytes.Buffer
	if err := json.Compact(&ca, a); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&cb, b); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ca.Bytes(), cb.Bytes())
}

// pollJob polls a job until it is terminal, as an HTTP client would.
func pollJob(t *testing.T, base, id string) service.Snapshot {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var snap service.Snapshot
		doJSON(t, "GET", base+"/v1/jobs/"+id, nil, http.StatusOK, &snap)
		if snap.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 2m", id, snap.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEndToEnd is the acceptance test for the serving subsystem: a real
// recorded trace travels upload → analyze → estimate over HTTP, repeat
// requests hit the cache, and the auxiliary endpoints respond.
func TestEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL

	// Record a real workload trace into memory.
	var buf bytes.Buffer
	prog := workload.New("npb-is", 8, workload.WithScale(0.05))
	if err := tracefile.Record(&buf, prog); err != nil {
		t.Fatal(err)
	}
	traceBytes := buf.Bytes()

	// Upload.
	var meta struct {
		Key     string `json:"key"`
		Name    string `json:"name"`
		Threads int    `json:"threads"`
		Regions int    `json:"regions"`
		Existed bool   `json:"existed"`
	}
	doJSON(t, "POST", base+"/v1/traces", traceBytes, http.StatusCreated, &meta)
	if meta.Name != "npb-is" || meta.Threads != 8 || meta.Existed {
		t.Fatalf("upload metadata %+v", meta)
	}
	wantKey, err := store.ReaderKey(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Key != wantKey {
		t.Fatalf("upload key %s, want content hash %s", meta.Key, wantKey)
	}

	// Re-upload dedupes by content.
	var meta2 struct {
		Key     string `json:"key"`
		Existed bool   `json:"existed"`
	}
	doJSON(t, "POST", base+"/v1/traces", traceBytes, http.StatusOK, &meta2)
	if meta2.Key != meta.Key || !meta2.Existed {
		t.Errorf("re-upload %+v, want same key and existed", meta2)
	}

	// No selection cached yet.
	doJSON(t, "GET", base+"/v1/selections/"+meta.Key, nil, http.StatusNotFound, nil)

	// Analyze.
	var snap service.Snapshot
	doJSON(t, "POST", base+"/v1/jobs",
		[]byte(fmt.Sprintf(`{"kind":"analyze","trace":%q}`, meta.Key)),
		http.StatusAccepted, &snap)
	done := pollJob(t, base, snap.ID)
	if done.Status != service.StatusDone {
		t.Fatalf("analyze failed: %s", done.Error)
	}
	var sel struct {
		Program string `json:"program"`
		K       int    `json:"k"`
	}
	if err := json.Unmarshal(done.Result, &sel); err != nil {
		t.Fatal(err)
	}
	if sel.Program != "npb-is" || sel.K < 1 {
		t.Errorf("selection result %+v", sel)
	}

	// The cached selection endpoint now serves the same bytes.
	resp, err := http.Get(base + "/v1/selections/" + meta.Key)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The job snapshot re-encodes the artifact (whitespace may differ), so
	// compare canonical forms; the store-layer tests assert byte identity.
	if resp.StatusCode != http.StatusOK || !jsonEqual(t, cached, done.Result) {
		t.Errorf("GET selection: code %d, selection differs from job result", resp.StatusCode)
	}

	// A repeat analyze job is a cache hit with identical bytes.
	var snap2 service.Snapshot
	doJSON(t, "POST", base+"/v1/jobs",
		[]byte(fmt.Sprintf(`{"kind":"analyze","trace":%q}`, meta.Key)),
		http.StatusAccepted, &snap2)
	done2 := pollJob(t, base, snap2.ID)
	if done2.ID != done.ID && !done2.Cached {
		t.Errorf("repeat analyze: new job %s not served from cache", done2.ID)
	}
	if !jsonEqual(t, done2.Result, done.Result) {
		t.Error("repeat analyze returned a different selection")
	}

	// Estimate with MRU warmup.
	doJSON(t, "POST", base+"/v1/jobs",
		[]byte(fmt.Sprintf(`{"kind":"estimate","trace":%q,"warmup":"mru"}`, meta.Key)),
		http.StatusAccepted, &snap)
	done = pollJob(t, base, snap.ID)
	if done.Status != service.StatusDone {
		t.Fatalf("estimate failed: %s", done.Error)
	}
	var est service.EstimateResult
	if err := json.Unmarshal(done.Result, &est); err != nil {
		t.Fatal(err)
	}
	if est.TimeNs <= 0 || est.IPC <= 0 || est.DRAMAPKI < 0 || est.Cores != 8 || est.Warmup != "mru" {
		t.Errorf("estimate result %+v", est)
	}

	// Trace metadata now lists the cached artifacts.
	var full struct {
		Artifacts []string `json:"artifacts"`
	}
	doJSON(t, "GET", base+"/v1/traces/"+meta.Key, nil, http.StatusOK, &full)
	var haveSel, haveEst bool
	for _, a := range full.Artifacts {
		haveSel = haveSel || strings.HasPrefix(a, "selection-")
		haveEst = haveEst || strings.HasPrefix(a, "estimate-")
	}
	if !haveSel || !haveEst {
		t.Errorf("artifacts %v missing selection/estimate", full.Artifacts)
	}

	// Trace listing.
	var list struct {
		Traces []string `json:"traces"`
	}
	doJSON(t, "GET", base+"/v1/traces", nil, http.StatusOK, &list)
	if len(list.Traces) != 1 || list.Traces[0] != meta.Key {
		t.Errorf("trace list %v", list.Traces)
	}

	// Health and metrics.
	var health struct {
		Status string `json:"status"`
	}
	doJSON(t, "GET", base+"/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" {
		t.Errorf("health %+v", health)
	}
	m := scrape(t, base)
	if m["bp_jobs_done_total"] < 3 || m["bp_trace_uploads_total"] != 2 || m["bp_traces_stored"] != 1 || m["bp_job_cache_hits_total"] < 1 {
		t.Errorf("metrics: %v jobs done, %v uploads, %v traces stored, %v cache hits",
			m["bp_jobs_done_total"], m["bp_trace_uploads_total"], m["bp_traces_stored"], m["bp_job_cache_hits_total"])
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL

	// Invalid trace uploads are rejected and not stored: garbage, and a
	// recording with version 1's magics, a layout no reader accepts.
	var v1 bytes.Buffer
	if err := tracefile.Record(&v1, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	copy(v1.Bytes(), "BPTRACE1")
	copy(v1.Bytes()[v1.Len()-8:], "BPTIDX1\n")
	var list struct {
		Traces []string `json:"traces"`
	}
	for _, body := range [][]byte{[]byte("not a trace"), v1.Bytes()} {
		doJSON(t, "POST", base+"/v1/traces", body, http.StatusBadRequest, nil)
		doJSON(t, "GET", base+"/v1/traces", nil, http.StatusOK, &list)
		if len(list.Traces) != 0 {
			t.Errorf("invalid upload %.8q was stored: %v", body, list.Traces)
		}
	}

	// Oversized uploads are rejected (413) and not stored.
	srv2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := service.New(srv2, 1, 0)
	s := newServer(srv2, mgr2)
	s.maxUpload = 16
	tiny := httptest.NewServer(s)
	defer func() {
		tiny.Close()
		mgr2.Shutdown(context.Background())
	}()
	doJSON(t, "POST", tiny.URL+"/v1/traces", bytes.Repeat([]byte("x"), 64),
		http.StatusRequestEntityTooLarge, nil)
	doJSON(t, "GET", tiny.URL+"/v1/traces", nil, http.StatusOK, &list)
	if len(list.Traces) != 0 {
		t.Errorf("oversized upload was stored: %v", list.Traces)
	}

	// Jobs against unknown traces 404; malformed bodies 400.
	missing := strings.Repeat("0", 64)
	doJSON(t, "POST", base+"/v1/jobs",
		[]byte(fmt.Sprintf(`{"kind":"analyze","trace":%q}`, missing)),
		http.StatusNotFound, nil)
	doJSON(t, "POST", base+"/v1/jobs", []byte(`{"kind":`), http.StatusBadRequest, nil)
	doJSON(t, "POST", base+"/v1/jobs", []byte(`{"kind":"analyze","surprise":1}`), http.StatusBadRequest, nil)

	// Unknown job and trace lookups 404.
	doJSON(t, "GET", base+"/v1/jobs/job-999999", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", base+"/v1/traces/"+missing, nil, http.StatusNotFound, nil)
	doJSON(t, "GET", base+"/v1/selections/"+missing, nil, http.StatusNotFound, nil)
}

// TestFarmEndToEnd exercises the farm tier through the real bpserve mux:
// upload a trace, submit a farmed estimate, serve it with bpworker's
// protocol client acting as the fleet, and check the result matches a
// local estimate of the same trace byte for byte.
func TestFarmEndToEnd(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := service.New(st, 2, 0)
	mgr.SetFarm(farm.NewQueue(st, farm.Config{LeaseTTL: 5 * time.Second}))
	ts := httptest.NewServer(newServer(st, mgr))
	defer func() {
		ts.Close()
		mgr.Shutdown(context.Background())
	}()
	base := ts.URL

	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Key string `json:"key"`
	}
	doJSON(t, "POST", base+"/v1/traces", buf.Bytes(), http.StatusCreated, &meta)

	// Submit the farmed estimate first; it blocks until the fleet works.
	var farmedJob service.Snapshot
	doJSON(t, "POST", base+"/v1/jobs",
		[]byte(fmt.Sprintf(`{"kind":"estimate","trace":%q,"warmup":"mru","exec":"farm"}`, meta.Key)),
		http.StatusAccepted, &farmedJob)

	// A worker joins over the public protocol and drains the queue.
	c := &farm.Client{Base: base}
	if _, _, err := c.Register("e2e-worker"); err != nil {
		t.Fatal(err)
	}
	wst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	go func() {
		for workerCtx.Err() == nil {
			tasks, err := c.Lease(4)
			if err != nil {
				return
			}
			for _, task := range tasks {
				if err := c.FetchTrace(wst, task.TraceKey); err != nil {
					c.Fail(task, err.Error())
					continue
				}
				res, err := farm.NewExecutor(wst, 0).Execute(task, nil)
				if err != nil {
					c.Fail(task, err.Error())
					continue
				}
				c.Complete(task, res)
			}
			if len(tasks) == 0 {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	farmed := pollJob(t, base, farmedJob.ID)
	if farmed.Status != service.StatusDone {
		t.Fatalf("farmed estimate failed: %s", farmed.Error)
	}

	// Fleet status shows the worker; /metrics counts its tasks.
	var fleet struct {
		Workers []farm.WorkerInfo `json:"workers"`
	}
	doJSON(t, "GET", base+"/farm/workers", nil, http.StatusOK, &fleet)
	if len(fleet.Workers) != 1 || fleet.Workers[0].Name != "e2e-worker" {
		t.Fatalf("fleet: %+v", fleet.Workers)
	}
	completed := mgr.Farm().Stats().Completed
	if completed == 0 {
		t.Fatal("no completed tasks in the queue's stats")
	}
	if got := scrape(t, base)["bp_farm_tasks_completed_total"]; got != float64(completed) {
		t.Fatalf("bp_farm_tasks_completed_total = %v, the queue says %d", got, completed)
	}

	// The same estimate computed locally on a second, farm-free server
	// over a fresh store must be byte-identical.
	st2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := service.New(st2, 2, 0)
	ts2 := httptest.NewServer(newServer(st2, mgr2))
	defer func() {
		ts2.Close()
		mgr2.Shutdown(context.Background())
	}()
	doJSON(t, "POST", ts2.URL+"/v1/traces", buf.Bytes(), http.StatusCreated, &meta)
	var localJob service.Snapshot
	doJSON(t, "POST", ts2.URL+"/v1/jobs",
		[]byte(fmt.Sprintf(`{"kind":"estimate","trace":%q,"warmup":"mru","exec":"local"}`, meta.Key)),
		http.StatusAccepted, &localJob)
	local := pollJob(t, ts2.URL, localJob.ID)
	if local.Status != service.StatusDone {
		t.Fatalf("local estimate failed: %s", local.Error)
	}
	if !jsonEqual(t, farmed.Result, local.Result) {
		t.Fatalf("farmed != local:\nfarmed: %s\nlocal:  %s", farmed.Result, local.Result)
	}
}

// TestMetricsAndHealthEndpoints drives a farmed estimate through the full
// server and then checks the observability surface: /metrics serves valid
// Prometheus text with monotone histogram buckets and carries the
// replay-cache and fleet gauges, and /healthz reports readiness and WAL
// state.
func TestMetricsAndHealthEndpoints(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := service.New(st, 2, 0)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 5 * time.Second})
	mgr.SetFarm(q)
	ts := httptest.NewServer(newServer(st, mgr))
	defer func() {
		ts.Close()
		mgr.Shutdown(context.Background())
	}()
	base := ts.URL
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go farm.RunLocalWorker(ctx, q, st, "metrics-test-worker")

	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	var meta struct {
		Key string `json:"key"`
	}
	doJSON(t, "POST", base+"/v1/traces", buf.Bytes(), http.StatusCreated, &meta)
	var job service.Snapshot
	doJSON(t, "POST", base+"/v1/jobs",
		[]byte(fmt.Sprintf(`{"kind":"estimate","trace":%q,"warmup":"mru","exec":"farm"}`, meta.Key)),
		http.StatusAccepted, &job)
	done := pollJob(t, base, job.ID)
	if done.Status != service.StatusDone {
		t.Fatalf("estimate failed: %s", done.Error)
	}
	if done.TraceID == "" || done.Span == nil {
		t.Fatalf("job snapshot lacks telemetry: trace_id=%q span=%v", done.TraceID, done.Span)
	}

	// /metrics: valid exposition, expected series nonzero, buckets
	// cumulative (monotone non-decreasing, ending at the count).
	samples := scrape(t, base)
	for _, name := range []string{
		"bp_jobs_submitted_total", "bp_jobs_done_total", "bp_trace_uploads_total",
		"bp_farm_tasks_enqueued_total", "bp_farm_tasks_completed_total",
	} {
		if samples[name] < 1 {
			t.Errorf("%s = %v, want >= 1", name, samples[name])
		}
	}
	prev := -1.0
	var bucketCount int
	for _, le := range []string{"0.1", "1", "10", "+Inf"} {
		name := fmt.Sprintf("bp_farm_task_seconds_bucket{le=%q}", le)
		v, ok := samples[name]
		if !ok {
			continue
		}
		bucketCount++
		if v < prev {
			t.Errorf("bucket %s = %v below previous %v (not cumulative)", name, v, prev)
		}
		prev = v
	}
	if bucketCount == 0 {
		t.Error("no bp_farm_task_seconds buckets in exposition")
	}
	if samples[`bp_farm_task_seconds_bucket{le="+Inf"}`] != samples["bp_farm_task_seconds_count"] {
		t.Errorf("+Inf bucket %v != count %v",
			samples[`bp_farm_task_seconds_bucket{le="+Inf"}`], samples["bp_farm_task_seconds_count"])
	}

	// The replay cache and the fleet are on /metrics.
	if samples["bp_replay_cache_max_bytes"] <= 0 {
		t.Errorf("bp_replay_cache_max_bytes = %v", samples["bp_replay_cache_max_bytes"])
	}
	if samples["bp_farm_live_workers"] != 1 {
		t.Errorf("bp_farm_live_workers = %v, want 1", samples["bp_farm_live_workers"])
	}

	// /healthz: readiness plus WAL state.
	var health struct {
		Status string `json:"status"`
		Ready  bool   `json:"ready"`
		Farm   struct {
			WAL struct {
				Durable bool `json:"durable"`
			} `json:"wal"`
		} `json:"farm"`
	}
	doJSON(t, "GET", base+"/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" || !health.Ready {
		t.Fatalf("health: %+v", health)
	}
	if health.Farm.WAL.Durable {
		t.Error("in-memory queue reported a durable WAL")
	}
}

// scrape fetches base's /metrics and returns every sample keyed by its
// series name, labels included.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			t.Fatalf("non-numeric sample %q: %v", line, err)
		}
		samples[name] = f
	}
	return samples
}

// TestHealthzKeySet: /healthz carries liveness, readiness and the state of
// the two journals — exactly those keys — on a bare server, a farm server
// and a server that replayed both journals of an earlier life. Every value
// it once copied from a counter reads on /metrics, checked against the
// sources it was copied from: the job list, the farm queue, the replay
// budget and the recovery reports /healthz still carries.
func TestHealthzKeySet(t *testing.T) {
	var trace bytes.Buffer
	if err := tracefile.Record(&trace, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	// open builds one coordinator life over dir: with a farm queue when
	// farmOn, and with the farm WAL and job journal in dir — replaying
	// whatever an earlier life left there — when durable.
	open := func(t *testing.T, dir string, farmOn, durable bool) *service.Manager {
		t.Helper()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := service.New(st, 2, 0)
		if farmOn {
			cfg := farm.Config{LeaseTTL: 5 * time.Second}
			var q *farm.Queue
			if durable {
				if q, _, err = farm.NewDurableQueue(st, cfg, filepath.Join(dir, "farm.wal")); err != nil {
					t.Fatal(err)
				}
			} else {
				q = farm.NewQueue(st, cfg)
			}
			m.SetFarm(q)
		}
		if durable {
			if _, err := m.EnableJournal(filepath.Join(dir, "jobs.wal")); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	// estimate ingests the trace and runs one estimate of it to completion:
	// farmed to an in-process worker when m has a queue, local otherwise.
	estimate := func(t *testing.T, m *service.Manager) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		exec := service.ExecLocal
		if q := m.Farm(); q != nil {
			exec = service.ExecFarm
			go farm.RunLocalWorker(ctx, q, m.Store(), "healthz-test")
		}
		res, err := m.IngestTrace(bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := m.Submit(service.Request{Kind: service.KindEstimate, Trace: res.Key, Warmup: "mru", Exec: exec})
		if err != nil {
			t.Fatal(err)
		}
		if snap, err = m.Wait(ctx, snap.ID); err != nil || snap.Status != service.StatusDone {
			t.Fatalf("estimate: %v %s", err, snap.Error)
		}
	}

	for _, tc := range []struct {
		name           string
		farm, recovery bool
		keys, farmKeys []string
	}{
		{"bare", false, false, []string{"job_journal", "ready", "status"}, nil},
		{"farm", true, false, []string{"farm", "job_journal", "ready", "status"}, []string{"wal"}},
		{"recovered", true, true, []string{"farm", "job_journal", "job_recovery", "ready", "status"}, []string{"recovery", "wal"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mgr := open(t, dir, tc.farm, tc.recovery)
			estimate(t, mgr)
			if tc.recovery {
				if err := mgr.Shutdown(context.Background()); err != nil {
					t.Fatal(err)
				}
				mgr = open(t, dir, tc.farm, tc.recovery)
			}
			ts := httptest.NewServer(newServer(mgr.Store(), mgr))
			defer func() {
				ts.Close()
				mgr.Shutdown(context.Background())
			}()
			base := ts.URL

			var health map[string]json.RawMessage
			doJSON(t, "GET", base+"/healthz", nil, http.StatusOK, &health)
			if got := slices.Sorted(maps.Keys(health)); !slices.Equal(got, tc.keys) {
				t.Errorf("/healthz keys %v, want %v", got, tc.keys)
			}
			var farmBody map[string]json.RawMessage
			if raw, ok := health["farm"]; ok {
				if err := json.Unmarshal(raw, &farmBody); err != nil {
					t.Fatal(err)
				}
			}
			if got := slices.Sorted(maps.Keys(farmBody)); !slices.Equal(got, tc.farmKeys) {
				t.Errorf("/healthz farm keys %v, want %v", got, tc.farmKeys)
			}

			want := map[string]float64{"bp_replay_cache_max_bytes": float64(bp.DefaultReplayCacheBytes)}
			for _, name := range []string{"bp_jobs_submitted_total", "bp_jobs_deduped_total", "bp_jobs_done_total",
				"bp_jobs_failed_total", "bp_job_cache_hits_total", "bp_jobs_farmed_total", "bp_jobs_recovered_total",
				"bp_farm_tasks_recovered_total"} {
				want[name] = 0
			}
			var jobs struct {
				Jobs []service.Snapshot `json:"jobs"`
			}
			doJSON(t, "GET", base+"/v1/jobs", nil, http.StatusOK, &jobs)
			for _, j := range jobs.Jobs {
				if j.Recovered {
					want["bp_jobs_recovered_total"]++
					continue
				}
				want["bp_jobs_submitted_total"]++
				if j.Status == service.StatusDone {
					want["bp_jobs_done_total"]++
				}
				if j.Request.Exec == service.ExecFarm {
					want["bp_jobs_farmed_total"]++
				}
			}
			if tc.farm {
				s := mgr.Farm().Stats()
				want["bp_farm_live_workers"] = float64(s.LiveWorkers)
				want["bp_farm_tasks_pending"] = float64(s.Pending)
				want["bp_farm_tasks_leased"] = float64(s.Leased)
				var rec farm.Recovery
				if raw, ok := farmBody["recovery"]; ok {
					if err := json.Unmarshal(raw, &rec); err != nil {
						t.Fatal(err)
					}
				}
				want["bp_farm_tasks_recovered_total"] = float64(rec.Pending)
			}
			got := scrape(t, base)
			for name, v := range want {
				if g, ok := got[name]; !ok || g != v {
					t.Errorf("/metrics %s = %v (exported: %v), want %v", name, g, ok, v)
				}
			}
			for _, name := range []string{"bp_uptime_seconds", "bp_replay_cache_bytes", "bp_cold_analyses_total",
				"bp_adaptive_rounds_total", "bp_adaptive_promoted_total", "bp_profile_cache_hits_total",
				"bp_profile_computed_total", "bp_ingest_traces_total", "bp_ingest_profiles_total"} {
				if _, ok := got[name]; !ok {
					t.Errorf("/metrics lacks %s", name)
				}
			}
		})
	}
}

// TestStreamingIngestEndToEnd drives the streaming upload path over HTTP:
// the upload response reports in-flight profiling, the analyze that
// follows computes zero region profiles, a re-analysis with a different
// max_k reuses 100% of them, and the profile-cache counters surface on
// /metrics.
func TestStreamingIngestEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)
	base := ts.URL

	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}

	var meta struct {
		Key     string `json:"key"`
		Regions int    `json:"regions"`
		Ingest  *struct {
			ProfilesCached   int `json:"profiles_cached"`
			ProfilesComputed int `json:"profiles_computed"`
		} `json:"ingest"`
	}
	doJSON(t, "POST", base+"/v1/traces", buf.Bytes(), http.StatusCreated, &meta)
	if meta.Ingest == nil {
		t.Fatal("upload response has no ingest summary")
	}
	if meta.Ingest.ProfilesComputed != meta.Regions || meta.Ingest.ProfilesCached != 0 {
		t.Fatalf("upload profiled %d/%d regions (%d cached)",
			meta.Ingest.ProfilesComputed, meta.Regions, meta.Ingest.ProfilesCached)
	}

	// Analyze right after the upload: all profiles come from the cache.
	analyze := func(body string) service.Snapshot {
		var snap service.Snapshot
		doJSON(t, "POST", base+"/v1/jobs", []byte(body), http.StatusAccepted, &snap)
		snap = pollJob(t, base, snap.ID)
		if snap.Status != service.StatusDone {
			t.Fatalf("analyze failed: %s", snap.Error)
		}
		return snap
	}
	snap := analyze(fmt.Sprintf(`{"kind":"analyze","trace":%q}`, meta.Key))
	if snap.Span == nil {
		t.Fatal("analyze job has no span")
	}
	if got := snap.Span.Attrs["profiles_computed"]; got != "0" {
		t.Errorf("analyze after streamed upload computed %s profiles, want 0", got)
	}
	if got := snap.Span.Attrs["profiles_cached"]; got != fmt.Sprint(meta.Regions) {
		t.Errorf("analyze profiles_cached attr = %q, want %d", got, meta.Regions)
	}
	stages := make(map[string]bool)
	for _, st := range snap.Span.Stages {
		stages[st.Name] = true
	}
	if !stages["profile-cache"] || stages["profile"] {
		t.Errorf("analyze stages %v, want profile-cache and no profile", snap.Span.Stages)
	}

	// Re-cluster with a different max_k: new artifact, zero re-profiling.
	snap2 := analyze(fmt.Sprintf(`{"kind":"analyze","trace":%q,"max_k":7}`, meta.Key))
	if snap2.Cached {
		t.Fatal("max_k=7 analysis hit the default artifact")
	}
	if got := snap2.Span.Attrs["profiles_computed"]; got != "0" {
		t.Errorf("re-cluster computed %s profiles, want 0", got)
	}

	// The max_k selection is served with the matching query parameter.
	doJSON(t, "GET", base+"/v1/selections/"+meta.Key+"?max_k=7", nil, http.StatusOK, nil)

	// Counters surfaced on /metrics.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"bp_profile_cache_hits_total", "bp_profile_computed_total", "bp_ingest_traces_total 1", "bp_ingest_profiles_total"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
