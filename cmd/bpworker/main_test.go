package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"barrierpoint/internal/farm"
	"barrierpoint/internal/fault"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// newFarm spins up a queue, its HTTP server and a server-side store
// holding one small trace.
func newFarm(t *testing.T) (*farm.Queue, *httptest.Server, *store.Store, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 5 * time.Second})
	srv := httptest.NewServer(farm.NewServer(q, st))
	t.Cleanup(srv.Close)
	t.Cleanup(q.Close)
	return q, srv, st, key
}

// TestWorkerProcessesTasks runs the real bpworker loop against a real
// farm server: it must register, fetch the trace it does not have,
// simulate both enqueued points in one batch, upload the results, and
// exit when its task budget is spent.
func TestWorkerProcessesTasks(t *testing.T) {
	q, srv, st, key := newFarm(t)

	var tickets []*farm.Ticket
	for _, region := range []int{1, 2} {
		tk, err := q.Enqueue(farm.Spec{TraceKey: key, Region: region, Sockets: 1, Warmup: "mru"})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}

	workerStore := filepath.Join(t.TempDir(), "wstore")
	var stderr bytes.Buffer
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	err := run(ctx, []string{
		"-server", srv.URL,
		"-store", workerStore,
		"-name", "unit-test-worker",
		"-concurrency", "2",
		"-poll", "10ms",
		"-max-tasks", "2",
	}, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	res, err := farm.WaitAll(context.Background(), tickets)
	if err != nil {
		t.Fatalf("tickets unresolved: %v\nstderr:\n%s", err, stderr.String())
	}
	// The worker's results must be bit-identical to server-local compute.
	for _, region := range []int{1, 2} {
		want, err := farm.NewExecutor(st, 0).Execute(farm.Task{TraceKey: key, Region: region, Sockets: 1, Warmup: "mru"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := res[region]
		if got.Cycles != want[0].Cycles || got.Counters != want[0].Counters {
			t.Fatalf("region %d: worker %+v != local %+v", region, got, want)
		}
	}

	// The worker fetched the trace into its own store and showed up in
	// the fleet listing.
	wst, err := store.Open(workerStore)
	if err != nil {
		t.Fatal(err)
	}
	if !wst.HasTrace(key) {
		t.Fatal("worker never cached the trace locally")
	}
	workers := q.Workers()
	if len(workers) != 1 || workers[0].Name != "unit-test-worker" || workers[0].Completed != 2 {
		t.Fatalf("fleet state: %+v", workers)
	}
	if !strings.Contains(stderr.String(), "registered as") {
		t.Fatalf("missing registration log:\n%s", stderr.String())
	}
}

// TestWorkerSurvivesCoordinatorRestart restarts the coordinator under a
// live worker: after finishing one task the worker's next lease hits a
// queue from a new life. It keeps working under the id it registered with
// — the new queue's fleet lists that id — and does not exit.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// The coordinator's handler is swappable, so a "restart" keeps the URL
	// the worker connected to.
	q1 := farm.NewQueue(st, farm.Config{LeaseTTL: 5 * time.Second})
	var handler atomic.Value
	handler.Store(farm.NewServer(q1, st))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	tk1, err := q1.Enqueue(farm.Spec{TraceKey: key, Region: 1, Sockets: 1, Warmup: "mru"})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	workerErr := make(chan error, 1)
	go func() {
		workerErr <- run(ctx, []string{
			"-server", srv.URL,
			"-store", filepath.Join(t.TempDir(), "wstore"),
			"-name", "restart-test-worker",
			"-poll", "10ms",
			"-max-tasks", "2",
		}, &stderr)
	}()

	select {
	case <-tk1.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("first task unresolved; stderr:\n%s", stderr.String())
	}
	if _, err := tk1.Result(); err != nil {
		t.Fatalf("first task failed: %v", err)
	}
	first := q1.Workers()
	if len(first) != 1 {
		t.Fatalf("first-life fleet state: %+v", first)
	}

	// Restart: a brand-new queue behind the same URL.
	q2 := farm.NewQueue(st, farm.Config{LeaseTTL: 5 * time.Second})
	t.Cleanup(q2.Close)
	handler.Store(farm.NewServer(q2, st))
	q1.Close()
	tk2, err := q2.Enqueue(farm.Spec{TraceKey: key, Region: 2, Sockets: 1, Warmup: "mru"})
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-tk2.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("task after restart unresolved; stderr:\n%s", stderr.String())
	}
	if _, err := tk2.Result(); err != nil {
		t.Fatalf("task after restart failed: %v", err)
	}
	if err := <-workerErr; err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if workers := q2.Workers(); len(workers) != 1 || workers[0].ID != first[0].ID || workers[0].Completed != 1 {
		t.Fatalf("second-life fleet state: %+v, want worker %s with one completion", workers, first[0].ID)
	}
}

// TestWorkerIdleExit checks the -idle-exit escape hatch used by CI.
func TestWorkerIdleExit(t *testing.T) {
	_, srv, _, _ := newFarm(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	start := time.Now()
	err := run(ctx, []string{
		"-server", srv.URL,
		"-store", filepath.Join(t.TempDir(), "wstore"),
		"-poll", "10ms",
		"-idle-exit", "100ms",
	}, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if time.Since(start) > 20*time.Second {
		t.Fatal("idle exit did not trigger")
	}
}

// TestWorkerReportsFailure gives the worker a task naming a trace the
// server does not serve; the worker must report the failure (consuming an
// attempt) rather than wedging.
func TestWorkerReportsFailure(t *testing.T) {
	q, srv, _, key := newFarm(t)
	// Region beyond the trace makes ExecuteTask fail after a successful
	// trace fetch.
	tk, err := q.Enqueue(farm.Spec{TraceKey: key, Region: 1 << 20, Sockets: 1, Warmup: "cold"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	if err := run(ctx, []string{
		"-server", srv.URL,
		"-store", filepath.Join(t.TempDir(), "wstore"),
		"-poll", "10ms",
		"-max-tasks", "3", // MaxAttempts defaults to 3: drive it to permanent failure
	}, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	select {
	case <-tk.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("ticket unresolved; stderr:\n%s", stderr.String())
	}
	if _, err := tk.Result(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("want out-of-range failure log, got %v", err)
	}
}

// syncBuf is a bytes.Buffer safe to read while the worker goroutine is
// still writing to it.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWorkerMetricsAndSpans runs the worker with its observability
// listener enabled: tasks enqueued with a trace ID must surface in the
// worker's /debug/spans under that ID (the HTTP protocol carried it on
// the task), and /metrics must expose bpworker_ series reflecting the
// completed work. The endpoints are scraped while the worker is alive —
// the listener closes when run returns.
func TestWorkerMetricsAndSpans(t *testing.T) {
	q, srv, _, key := newFarm(t)

	const traceID = "feedc0defeedc0de"
	for _, region := range []int{1, 2} {
		if _, err := q.Enqueue(farm.Spec{TraceKey: key, Region: region, Sockets: 1, Warmup: "mru", TraceID: traceID}); err != nil {
			t.Fatal(err)
		}
	}

	var stderr syncBuf
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-server", srv.URL,
			"-store", filepath.Join(t.TempDir(), "wstore"),
			"-name", "obs-test-worker",
			"-poll", "10ms",
			"-metrics-addr", "127.0.0.1:0",
		}, &stderr)
	}()

	// The worker logs the listener's resolved address; fish it out.
	var addr string
	deadline := time.Now().Add(30 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("metrics listener never logged; stderr:\n%s", stderr.String())
		}
		for _, field := range strings.Fields(stderr.String()) {
			if v, ok := strings.CutPrefix(field, "addr="); ok {
				addr = v
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Poll /debug/spans until both farm-task spans carry the enqueuer's
	// trace ID end to end.
	var spans []struct {
		TraceID string `json:"trace_id"`
		Name    string `json:"name"`
		Stages  []struct {
			Name string `json:"name"`
		} `json:"stages"`
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/debug/spans")
		if err != nil {
			t.Fatal(err)
		}
		spans = spans[:0]
		err = json.NewDecoder(resp.Body).Decode(&spans)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker recorded %d spans, want 2; stderr:\n%s", len(spans), stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Fatalf("span trace ID %q, want %q", sp.TraceID, traceID)
		}
		if sp.Name != "farm-task" {
			t.Fatalf("span name %q", sp.Name)
		}
		stages := make(map[string]bool)
		for _, st := range sp.Stages {
			stages[st.Name] = true
		}
		for _, want := range []string{"fetch", "simulate", "upload"} {
			if !stages[want] {
				t.Fatalf("span missing stage %q: %+v", want, sp)
			}
		}
	}

	// /metrics reflects the two completed tasks.
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"bpworker_tasks_completed_total 2",
		"bpworker_tasks_failed_total 0",
		"bpworker_task_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
}

// TestWorkerUploadFailureDoesNotBurnBudget knocks out the result
// endpoint long enough to exhaust the client's own retry budget: the
// task must stay UNSETTLED (its lease lapses, -max-tasks is not
// consumed) and the worker must re-lease and deliver it once the
// endpoint recovers — exiting only then, with the budget spent on the
// one settled task.
func TestWorkerUploadFailureDoesNotBurnBudget(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// A short lease (swept every quarter TTL) so the unsettled task requeues
	// quickly.
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 300 * time.Millisecond})
	t.Cleanup(q.Close)
	inner := farm.NewServer(q, st)

	// The first 5 uploads fail: the client's default budget is 4 attempts
	// per call, so the first runTask exhausts it and returns unsettled;
	// the re-leased attempt's second upload try gets through.
	var resultHits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/farm/result" && resultHits.Add(1) <= 5 {
			http.Error(w, `{"error":"result storage down"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	tk, err := q.Enqueue(farm.Spec{TraceKey: key, Region: 1, Sockets: 1, Warmup: "mru"})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	err = run(ctx, []string{
		"-server", srv.URL,
		"-store", filepath.Join(t.TempDir(), "wstore"),
		"-name", "upload-retry-worker",
		"-concurrency", "1",
		"-poll", "10ms",
		"-max-tasks", "1",
	}, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	select {
	case <-tk.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("ticket unresolved after worker exit; stderr:\n%s", stderr.String())
	}
	if _, err := tk.Result(); err != nil {
		t.Fatalf("task failed: %v\nstderr:\n%s", err, stderr.String())
	}
	if got := resultHits.Load(); got < 6 {
		t.Fatalf("result endpoint saw %d hits, want >= 6 (client retries + re-lease)", got)
	}
	workers := q.Workers()
	if len(workers) != 1 || workers[0].Completed != 1 {
		t.Fatalf("fleet state: %+v", workers)
	}
	log := stderr.String()
	if !strings.Contains(log, "settled 1 tasks, exiting") {
		t.Fatalf("worker exited before settling its budget:\n%s", log)
	}
	if !strings.Contains(log, "uploading result") {
		t.Fatalf("missing unsettled-upload warning:\n%s", log)
	}
}

// TestWorkerFaultFlagRetriesInjectedErrors boots the worker with -fault
// arming deterministic lease failures: the injected errors must be
// absorbed by the client's retry loop (counted in bp_rpc_retries_total)
// without the worker exiting or the task failing.
func TestWorkerFaultFlagRetriesInjectedErrors(t *testing.T) {
	q, srv, _, key := newFarm(t)
	tk, err := q.Enqueue(farm.Spec{TraceKey: key, Region: 1, Sockets: 1, Warmup: "mru"})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	err = run(ctx, []string{
		"-server", srv.URL,
		"-store", filepath.Join(t.TempDir(), "wstore"),
		"-name", "fault-flag-worker",
		"-poll", "10ms",
		"-max-tasks", "1",
		"-fault", "seed=5;rpc.lease:n=2",
	}, &stderr)
	fault.Reset() // the flag arms the process-wide injector; disarm for other tests
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	if _, err := tk.Result(); err != nil {
		t.Fatalf("task failed under injected lease faults: %v", err)
	}
	if !strings.Contains(stderr.String(), "fault injection armed") {
		t.Fatalf("missing fault-armed log:\n%s", stderr.String())
	}
}
