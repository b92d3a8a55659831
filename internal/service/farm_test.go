package service

import (
	"bytes"
	"context"
	"errors"
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
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 100 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
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
// test at the service layer: a coordinator dies with a farmed estimate's
// tasks queued and in flight, a new coordinator rebuilds the queue from
// the write-ahead log, the re-submitted job re-attaches to every
// recovered task instead of re-enqueueing, and the finished estimate is
// byte-identical to a run that was never interrupted.
func TestFarmedEstimateResumesRecoveredQueue(t *testing.T) {
	st, key := newTestStore(t)
	walPath := filepath.Join(st.Root(), "farm.wal")
	cfg := farm.Config{LeaseTTL: time.Hour} // recovery, not TTL expiry, must requeue the lease

	q1, rec, err := farm.NewDurableQueue(st, cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	if rec != (farm.Recovery{}) {
		t.Fatalf("fresh wal reported recovery %+v", rec)
	}
	m1 := New(st, 2, 0)
	m1.SetFarm(q1)

	// First life: the job enqueues its per-point tasks, a phantom worker
	// leases one, no one ever completes anything.
	req := Request{Kind: KindEstimate, Trace: key, Warmup: "mru", Exec: ExecFarm}
	if _, err := m1.Submit(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		if tasks := q1.Lease("phantom", 1); len(tasks) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never enqueued a task")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The coordinator "dies": an expired shutdown context tears it down
	// without waiting for the farmed job. Close journals nothing — the
	// queued and leased tasks stay in the log for the next life. (The job
	// may have been mid-enqueue when it died; whatever made it into the
	// journal — read after Close, when the count is final — must recover.)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err = m1.Shutdown(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first-life Shutdown = %v, want DeadlineExceeded", err)
	}
	enqueuedBefore := q1.Stats().Enqueued

	// Second life: replay the journal.
	q2, rec, err := farm.NewDurableQueue(st, cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(rec.Pending+rec.Requeued) != enqueuedBefore {
		t.Fatalf("recovered %d+%d tasks, want all %d enqueued before the crash",
			rec.Pending, rec.Requeued, enqueuedBefore)
	}
	if rec.Requeued != 1 {
		t.Fatalf("recovery = %+v, want the phantom's lease requeued", rec)
	}
	m2 := New(st, 2, 0)
	m2.SetFarm(q2)
	defer m2.Shutdown(context.Background())
	if got := m2.farmRecovered.Load(); got != enqueuedBefore {
		t.Fatalf("farm_tasks_recovered = %d, want %d", got, enqueuedBefore)
	}

	// Re-submitting the same request must re-attach to every recovered
	// task, not duplicate it. No workers run yet, so the dedup count is
	// exact once the job's enqueue pass finishes.
	snap, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(20 * time.Second)
	for q2.Stats().DedupInflight != enqueuedBefore {
		if time.Now().After(deadline) {
			t.Fatalf("re-submit deduped %d tasks onto the %d recovered ones (stats %+v)",
				q2.Stats().DedupInflight, enqueuedBefore, q2.Stats())
		}
		time.Sleep(2 * time.Millisecond)
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
	if done.Status != StatusDone {
		t.Fatalf("resumed job failed: %s", done.Error)
	}

	// And the interruption left no trace in the result: byte-identical to
	// a never-crashed local run on a fresh store.
	st2, key2 := newTestStore(t)
	m3 := New(st2, 2, 0)
	defer m3.Shutdown(context.Background())
	local := submitAndWait(t, m3, Request{Kind: KindEstimate, Trace: key2, Warmup: "mru", Exec: ExecLocal})
	if local.Status != StatusDone {
		t.Fatalf("local job failed: %s", local.Error)
	}
	if !bytes.Equal(done.Result, local.Result) {
		t.Fatalf("recovered estimate differs from uninterrupted local run:\nrecovered: %s\nlocal:     %s",
			done.Result, local.Result)
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
