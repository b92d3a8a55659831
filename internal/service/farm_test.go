package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"barrierpoint/internal/farm"
)

// submitAndWait runs one job to completion.
func submitAndWait(t *testing.T, m *Manager, req Request) Snapshot {
	t.Helper()
	snap, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	snap, err = m.Wait(ctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestFarmedEstimateMatchesLocal is the subsystem's acceptance test: the
// same estimate computed through the farm (two in-process workers over
// the distributed queue) and computed locally on a completely separate
// store must produce byte-identical result payloads.
func TestFarmedEstimateMatchesLocal(t *testing.T) {
	// Farm side: manager + queue + two workers sharing the server store.
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	m := New(st, 2, 0)
	m.SetFarm(q)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go farm.RunLocalWorker(ctx, q, st, "svc-test")
	}
	defer m.Shutdown(context.Background())

	req := Request{Kind: KindEstimate, Trace: key, Warmup: "mru", Exec: ExecFarm}
	farmed := submitAndWait(t, m, req)
	if farmed.Status != StatusDone {
		t.Fatalf("farmed job failed: %s", farmed.Error)
	}
	if got := m.pipe.farmed.Load(); got != 1 {
		t.Fatalf("jobs_farmed = %d, want 1", got)
	}

	// Local side: fresh store (same trace content → same key), no farm.
	st2, key2 := newTestStore(t)
	if key2 != key {
		t.Fatalf("trace keys differ: %s vs %s", key2, key)
	}
	m2 := New(st2, 2, 0)
	defer m2.Shutdown(context.Background())
	local := submitAndWait(t, m2, Request{Kind: KindEstimate, Trace: key2, Warmup: "mru", Exec: ExecLocal})
	if local.Status != StatusDone {
		t.Fatalf("local job failed: %s", local.Error)
	}

	if !bytes.Equal(farmed.Result, local.Result) {
		t.Fatalf("farmed estimate differs from local:\nfarmed: %s\nlocal:  %s", farmed.Result, local.Result)
	}
}

// TestFarmedEstimateSurvivesWorkerLoss kills a worker mid-run: a doomed
// worker leases the first task and vanishes, its lease expires, and the
// live workers complete the requeued task — with the final estimate still
// byte-identical to pure local execution.
func TestFarmedEstimateSurvivesWorkerLoss(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 100 * time.Millisecond})
	m := New(st, 2, 0)
	m.SetFarm(q)
	defer m.Shutdown(context.Background())

	snap, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Warmup: "mru", Exec: ExecFarm})
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker grabs the first task the job enqueues and never
	// comes back — simulating a worker killed mid-simulation.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if tasks := q.Lease("doomed", 1); len(tasks) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never enqueued a task")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Only now do live workers join; one of them will pick up the
	// requeued task after the doomed lease expires.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go farm.RunLocalWorker(ctx, q, st, "survivor")
	}

	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	done, err := m.Wait(wctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("farmed job failed: %s", done.Error)
	}
	if s := q.Stats(); s.Expired == 0 {
		t.Fatalf("doomed lease never expired — requeue path not exercised: %+v", s)
	}

	st2, key2 := newTestStore(t)
	m2 := New(st2, 2, 0)
	defer m2.Shutdown(context.Background())
	local := submitAndWait(t, m2, Request{Kind: KindEstimate, Trace: key2, Warmup: "mru"})
	if !bytes.Equal(done.Result, local.Result) {
		t.Fatalf("estimate after worker loss differs from local:\nfarmed: %s\nlocal:  %s", done.Result, local.Result)
	}
}

// TestShutdownRequeuesFarmedTasks is the graceful-shutdown fix: a farmed
// job blocked on a queue with no workers must not pin Shutdown until
// lease TTLs expire — the expired shutdown context closes the queue,
// requeues/fails the in-flight tasks, and the job fails promptly.
func TestShutdownRequeuesFarmedTasks(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: time.Hour}) // TTL must not govern shutdown latency
	m := New(st, 2, 0)
	m.SetFarm(q)

	snap, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Warmup: "cold", Exec: ExecFarm})
	if err != nil {
		t.Fatal(err)
	}
	// Let the job start and enqueue its tasks; lease one with a phantom
	// worker so the queue holds both queued and leased tasks.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if tasks := q.Lease("phantom", 1); len(tasks) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never enqueued a task")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = m.Shutdown(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("shutdown took %v — leases abandoned until TTL expiry", elapsed)
	}
	// The blocked job observed the queue closure and failed cleanly.
	got, ok := m.Get(snap.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if got.Status != StatusFailed || got.Error == "" {
		t.Fatalf("job after shutdown: %+v", got)
	}
	if s := q.Stats(); s.RequeuedClose != 1 {
		t.Fatalf("leased task not requeued on close: %+v", s)
	}
}

// TestFarmedEstimateResumesRecoveredQueue is the durability acceptance
// test at the service layer: a coordinator dies with a farmed estimate part
// done, the next coordinator replays the job journal over a fresh queue,
// the job re-runs under its original ID, the point finished before the
// crash resolves from the store instead of running again, and the result
// is byte-identical to a run that was never interrupted.
func TestFarmedEstimateResumesRecoveredQueue(t *testing.T) {
	for _, warmup := range []string{"mru", "mru+prev"} {
		t.Run(warmup, func(t *testing.T) { resumeRecoveredQueue(t, warmup) })
	}
}

// resumeRecoveredQueue is TestFarmedEstimateResumesRecoveredQueue under one
// warmup mode. Under mru+prev a task is a run of points (bp.Runs): npb-ft's
// selection is two runs, of four and five points (npb-is's is one run, which
// would finish the job before the crash).
func resumeRecoveredQueue(t *testing.T, warmup string) {
	name := map[string]string{"mru": "npb-is", "mru+prev": "npb-ft"}[warmup]
	st, key := newStoreWith(t, name)
	dir := t.TempDir()
	journal := filepath.Join(dir, "jobs.wal")
	cfg := farm.Config{LeaseTTL: time.Hour}

	// First life: the job enqueues its per-point tasks and one worker
	// completes exactly one of them.
	q1 := farm.NewQueue(st, cfg)
	m1 := New(st, 2, 0)
	m1.SetFarm(q1)
	if _, err := m1.EnableJournal(journal); err != nil {
		t.Fatal(err)
	}
	req := Request{Kind: KindEstimate, Trace: key, Warmup: warmup, Exec: ExecFarm}
	snap, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []farm.Task
	for deadline := time.Now().Add(20 * time.Second); len(tasks) == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job never enqueued a task")
		}
		tasks = q1.Lease("w1", 1)
	}
	res, err := farm.NewExecutor(st).Execute(tasks[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if err := q1.Complete("w1", tasks[0].ID, payload); err != nil {
		t.Fatal(err)
	}
	// The journal as a kill -9 here leaves it: the job's submit record and
	// no terminal one. The copy keeps it so whatever the first life's
	// Shutdown appends lands in the original file only.
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	crashed := filepath.Join(dir, "jobs-at-crash.wal")
	if err := os.WriteFile(crashed, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err = m1.Shutdown(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first-life Shutdown = %v, want DeadlineExceeded", err)
	}

	// Second life: a fresh queue, the job journal replayed, local workers.
	q2 := farm.NewQueue(st, cfg)
	m2 := New(st, 2, 0)
	m2.SetFarm(q2)
	defer m2.Shutdown(context.Background())
	rec, err := m2.EnableJournal(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Requeued != 1 {
		t.Fatalf("job recovery = %+v, want the farmed job re-enqueued", rec)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	for i := 0; i < 2; i++ {
		go farm.RunLocalWorker(wctx, q2, st, "second-life")
	}
	done, err := m2.Wait(wctx, snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone || !done.Recovered {
		t.Fatalf("job %s after restart: status %s, recovered %v: %s", snap.ID, done.Status, done.Recovered, done.Error)
	}
	// The point completed before the crash is not run again.
	if hits := metricValues(t, m2)["bp_farm_dedup_store_total"]; hits < 1 {
		t.Errorf("bp_farm_dedup_store_total = %v, want the point finished before the crash resolved from the store", hits)
	}

	// And the interruption left no trace in the result: byte-identical to
	// a never-crashed local run on a fresh store.
	st2, key2 := newStoreWith(t, name)
	m3 := New(st2, 2, 0)
	defer m3.Shutdown(context.Background())
	local := submitAndWait(t, m3, Request{Kind: KindEstimate, Trace: key2, Warmup: warmup, Exec: ExecLocal})
	if local.Status != StatusDone {
		t.Fatalf("local job failed: %s", local.Error)
	}
	if !bytes.Equal(done.Result, local.Result) {
		t.Fatalf("recovered estimate differs from uninterrupted local run:\nrecovered: %s\nlocal:     %s",
			done.Result, local.Result)
	}
	if continued := local.Span.Attrs["points_continued"]; (warmup == "mru+prev") != (continued != "0") {
		t.Errorf("%s: %s points continued a run", warmup, continued)
	}
}

// TestDrainTimeoutRequeuesFarmedJob: a Shutdown whose drain times out closes
// the farm queue, failing every farmed job blocked on it with
// farm.ErrClosed. That failure must not be journaled as terminal: the next
// life over the same journal re-enqueues the job, as after a kill -9.
func TestDrainTimeoutRequeuesFarmedJob(t *testing.T) {
	st, key := newTestStore(t)
	journal := filepath.Join(t.TempDir(), "jobs.wal")
	q := farm.NewQueue(st, farm.Config{LeaseTTL: time.Hour})
	m1 := New(st, 1, 0)
	m1.SetFarm(q)
	if _, err := m1.EnableJournal(journal); err != nil {
		t.Fatal(err)
	}
	snap, err := m1.Submit(Request{Kind: KindEstimate, Trace: key, Warmup: "mru", Exec: ExecFarm})
	if err != nil {
		t.Fatal(err)
	}
	// No worker ever leases, so the job blocks on its enqueued points.
	for deadline := time.Now().Add(20 * time.Second); q.Stats().Pending == 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job never enqueued a task")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err = m1.Shutdown(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if got, _ := m1.Get(snap.ID); got.Status != StatusFailed {
		t.Fatalf("first-life job status %s, want failed on the closed queue", got.Status)
	}

	m2 := New(st, 1, 0)
	m2.SetFarm(farm.NewQueue(st, farm.Config{LeaseTTL: time.Hour}))
	rec, err := m2.EnableJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	// The re-enqueued job blocks too (still no workers): drain-timeout again.
	ctx, cancel = context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	defer m2.Shutdown(ctx)
	if rec.Requeued != 1 || rec.Terminal != 0 {
		t.Fatalf("job recovery = %+v, want {Requeued:1 Terminal:0}", rec)
	}
}

// TestExecValidation covers the new request field.
func TestExecValidation(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 1, 0)
	defer m.Shutdown(context.Background())

	if _, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Exec: "cluster"}); err == nil {
		t.Fatal("unknown exec mode accepted")
	}
	// Forced farm without an attached queue is an error...
	if _, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Exec: ExecFarm}); err == nil {
		t.Fatal("exec=farm accepted without a farm queue")
	}
	// ...as is farming a job kind that has no per-point decomposition.
	for _, kind := range []Kind{KindAnalyze, KindSimulate} {
		if _, err := m.Submit(Request{Kind: kind, Trace: key, Exec: ExecFarm}); err == nil {
			t.Fatalf("exec=farm accepted for %s job", kind)
		}
	}
	// ...but auto and local run fine.
	for _, exec := range []string{"", ExecAuto, ExecLocal} {
		snap := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "cold", Exec: exec})
		if snap.Status != StatusDone {
			t.Fatalf("exec %q: %s", exec, snap.Error)
		}
	}
}

// TestAutoFallsBackToLocal proves the fallback: with a farm attached but
// no live workers, an auto-exec estimate runs on the local pool (and
// caches per-point results in the store).
func TestAutoFallsBackToLocal(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	m := New(st, 1, 0)
	m.SetFarm(q)
	defer m.Shutdown(context.Background())

	snap := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "cold"})
	if snap.Status != StatusDone {
		t.Fatalf("auto job failed: %s", snap.Error)
	}
	if got := m.pipe.farmed.Load(); got != 0 {
		t.Fatalf("job farmed with no workers (jobs_farmed = %d)", got)
	}
	// Local execution populated the shared per-point cache.
	names, err := st.Artifacts(key)
	if err != nil {
		t.Fatal(err)
	}
	points := 0
	for _, n := range names {
		if len(n) > 5 && n[:5] == "point" {
			points++
		}
	}
	if points == 0 {
		t.Fatal("local execution did not cache point results")
	}
}
