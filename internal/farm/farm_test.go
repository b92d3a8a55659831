package farm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/store"
)

// newTestStore opens a fresh store holding one small recorded trace and
// returns it with the trace's content key.
func newTestStore(t testing.TB) (*store.Store, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st, putTrace(t, st, "npb-is", 8)
}

func spec(key string) farm.Spec {
	return farm.Spec{TraceKey: key, Region: 1, Sockets: 1, Warmup: "cold"}
}

// waitTicket fails the test if the ticket does not resolve in time.
func waitTicket(t *testing.T, tk *farm.Ticket) (bp.RegionResult, error) {
	t.Helper()
	select {
	case <-tk.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("ticket did not resolve")
	}
	return tk.Result()
}

// completeJSON simulates the task against the store and returns the wire
// payload a worker would upload.
func completeJSON(t *testing.T, st *store.Store, tk farm.Task) []byte {
	t.Helper()
	res, err := farm.NewExecutor(st, nil).Execute(tk, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEnqueueDedupAndStoreReuse covers both dedup layers: identical specs
// share one live task and one ticket, and once a result lands in the
// store a later enqueue resolves immediately without queuing anything.
func TestEnqueueDedupAndStoreReuse(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	defer q.Close()

	tk1, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	if tk1 != tk2 {
		t.Fatal("identical live specs should share a ticket")
	}
	if s := q.Stats(); s.DedupInflight != 1 || s.Enqueued != 1 {
		t.Fatalf("stats after dup enqueue: %+v", s)
	}

	tasks := q.Lease("w1", 10)
	if len(tasks) != 1 {
		t.Fatalf("leased %d tasks, want 1", len(tasks))
	}
	if tasks[0].Attempt != 1 {
		t.Fatalf("attempt = %d, want 1", tasks[0].Attempt)
	}
	if err := q.Complete("w1", tasks[0].ID, completeJSON(t, st, tasks[0])); err != nil {
		t.Fatal(err)
	}
	res1, err := waitTicket(t, tk1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Cycles == 0 || res1.Counters.Instrs == 0 {
		t.Fatalf("implausible result: %+v", res1)
	}

	// The result is now a store artifact: a fresh enqueue is a cache hit.
	tk3, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	<-tk3.Done()
	if hits := q.Stats().DedupStore; hits != 1 {
		t.Fatalf("post-completion enqueue should resolve from the store: %d store hits", hits)
	}
	res3, _ := tk3.Result()
	b1, _ := json.Marshal(res1)
	b3, _ := json.Marshal(res3)
	if !bytes.Equal(b1, b3) {
		t.Fatalf("cached result differs: %s vs %s", b3, b1)
	}
	if !st.HasArtifact(key, tasks[0].Artifact) {
		t.Fatal("point artifact missing from store")
	}
}

// TestLeaseExpiryRequeue is the worker-loss scenario: a worker leases a
// task and dies silently; after the TTL the sweeper requeues it and a
// second worker completes it, resolving the original ticket.
func TestLeaseExpiryRequeue(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 60 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
	defer q.Close()

	tk, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	dead := q.Lease("dead-worker", 1)
	if len(dead) != 1 {
		t.Fatalf("leased %d, want 1", len(dead))
	}
	// Simulate the point now, while the dead lease is meant to expire: done
	// inside the live worker's lease, a slow host outlasts that 60 ms TTL too
	// and the sweeper expires the task a second time.
	payload := completeJSON(t, st, dead[0])

	// Second worker polls until the expired task is reassigned to it.
	var got farm.Task
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tasks := q.Lease("live-worker", 1); len(tasks) == 1 {
			got = tasks[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired task never requeued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got.ID != dead[0].ID {
		t.Fatalf("requeued task %s != original %s", got.ID, dead[0].ID)
	}
	if got.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", got.Attempt)
	}
	if err := q.Complete("live-worker", got.ID, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := waitTicket(t, tk); err != nil {
		t.Fatal(err)
	}
	if s := q.Stats(); s.Expired != 1 || s.Retries != 1 || s.Completed != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestHeartbeatKeepsLease proves heartbeats renew leases past the TTL and
// that stopping them surrenders the task.
func TestHeartbeatKeepsLease(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 80 * time.Millisecond, SweepEvery: 10 * time.Millisecond})
	defer q.Close()

	if _, err := q.Enqueue(spec(key)); err != nil {
		t.Fatal(err)
	}
	tasks := q.Lease("w1", 1)
	if len(tasks) != 1 {
		t.Fatal("no lease")
	}
	id := tasks[0].ID

	// Heartbeat for ~4 TTLs; the task must never be leased to anyone else.
	for i := 0; i < 16; i++ {
		renewed, dropped := q.Heartbeat("w1", []string{id})
		if len(renewed) != 1 || len(dropped) != 0 {
			t.Fatalf("heartbeat %d: renewed %v dropped %v", i, renewed, dropped)
		}
		if stolen := q.Lease("w2", 1); len(stolen) != 0 {
			t.Fatalf("heartbeat %d: task reassigned while heartbeating", i)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if s := q.Stats(); s.Expired != 0 {
		t.Fatalf("lease expired despite heartbeats: %+v", s)
	}

	// Stop heartbeating: the task must eventually land on w2, and a late
	// heartbeat from w1 must report it dropped.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tasks := q.Lease("w2", 1); len(tasks) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	renewed, dropped := q.Heartbeat("w1", []string{id})
	if len(renewed) != 0 || len(dropped) != 1 {
		t.Fatalf("late heartbeat: renewed %v dropped %v", renewed, dropped)
	}
}

// TestBoundedRetries drives a task to permanent failure and checks the
// accumulated per-attempt failure log; a fresh enqueue afterwards starts
// over with a clean slate.
func TestBoundedRetries(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{MaxAttempts: 2})
	defer q.Close()

	tk, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		tasks := q.Lease("w1", 1)
		if len(tasks) != 1 || tasks[0].Attempt != attempt {
			t.Fatalf("attempt %d: leased %+v", attempt, tasks)
		}
		if err := q.Fail("w1", tasks[0].ID, "simulated crash"); err != nil {
			t.Fatal(err)
		}
	}
	_, err = waitTicket(t, tk)
	if err == nil {
		t.Fatal("task should have failed permanently")
	}
	for _, want := range []string{"after 2 attempts", "attempt 1 on worker w1: simulated crash", "attempt 2 on worker w1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("failure log %q missing %q", err, want)
		}
	}
	if s := q.Stats(); s.Failed != 1 {
		t.Fatalf("stats: %+v", s)
	}

	// Permanent failure clears the dedup slot: retrying is possible.
	tk2, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	tasks := q.Lease("w2", 1)
	if len(tasks) != 1 || tasks[0].Attempt != 1 {
		t.Fatalf("re-enqueued task: %+v", tasks)
	}
	if err := q.Complete("w2", tasks[0].ID, completeJSON(t, st, tasks[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := waitTicket(t, tk2); err != nil {
		t.Fatal(err)
	}
}

// TestCompleteIdempotent uploads the same result three times — twice from
// the original worker, once from a worker whose lease expired long ago —
// and expects every upload to be acknowledged.
func TestCompleteIdempotent(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	defer q.Close()

	tk, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	tasks := q.Lease("w1", 1)
	payload := completeJSON(t, st, tasks[0])
	if err := q.Complete("w1", tasks[0].ID, payload); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete("w1", tasks[0].ID, payload); err != nil {
		t.Fatalf("duplicate upload rejected: %v", err)
	}
	if err := q.Complete("w-stale", tasks[0].ID, payload); err != nil {
		t.Fatalf("stale-worker upload rejected: %v", err)
	}
	if _, err := waitTicket(t, tk); err != nil {
		t.Fatal(err)
	}
	if s := q.Stats(); s.Completed != 1 {
		t.Fatalf("completions double-counted: %+v", s)
	}
	// Failing a completed task is a harmless no-op, not an error.
	if err := q.Fail("w1", tasks[0].ID, "late failure"); err != nil {
		t.Fatal(err)
	}
}

// TestCloseUnblocksWaiters shuts the queue down with tasks queued and
// leased; every ticket must fail promptly with ErrClosed rather than
// waiting out lease TTLs, and leased tasks count as requeued.
func TestCloseUnblocksWaiters(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: time.Hour})

	tkQueued, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	sp2 := spec(key)
	sp2.Region = 2
	tkLeased, err := q.Enqueue(sp2)
	if err != nil {
		t.Fatal(err)
	}
	leased := q.Lease("w1", 1)
	if len(leased) != 1 {
		t.Fatal("no lease")
	}

	start := time.Now()
	q.Close()
	for _, tk := range []*farm.Ticket{tkQueued, tkLeased} {
		if _, err := waitTicket(t, tk); !errors.Is(err, farm.ErrClosed) {
			t.Fatalf("ticket error = %v, want ErrClosed", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("close took %v, waiters must not wait for lease TTLs", elapsed)
	}
	if s := q.Stats(); s.RequeuedClose != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if _, err := q.Enqueue(spec(key)); !errors.Is(err, farm.ErrClosed) {
		t.Fatalf("enqueue after close = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

// TestConcurrentLeaseHeartbeatResult is the -race test for the same task
// being leased, heartbeated, completed and failed from many goroutines at
// once: exactly one completion must win, the ticket must resolve with a
// valid result, and nothing may deadlock.
func TestConcurrentLeaseHeartbeatResult(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 20 * time.Millisecond, SweepEvery: 5 * time.Millisecond})
	defer q.Close()

	tk, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}
	// One real payload, computed once.
	payload := completeJSON(t, st, farm.Task{TraceKey: key, Region: 1, Sockets: 1, Warmup: "cold"})

	var wg sync.WaitGroup
	stopc := make(chan struct{})
	hammer := func(worker string) {
		defer wg.Done()
		for {
			select {
			case <-stopc:
				return
			default:
			}
			for _, task := range q.Lease(worker, 2) {
				q.Heartbeat(worker, []string{task.ID})
				if task.Attempt%2 == 0 {
					q.Fail(worker, task.ID, "flaky")
				} else {
					q.Complete(worker, task.ID, payload)
				}
			}
			q.Heartbeat(worker, []string{"task-000001"})
		}
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go hammer(string(rune('a' + i)))
	}

	res, err := farm.WaitAll(context.Background(), []*farm.Ticket{tk})
	close(stopc)
	wg.Wait()
	if err != nil {
		// With MaxAttempts retries and random Fail calls the task can
		// legitimately exhaust its attempts; accept either outcome but
		// require it to be the bounded-retry error, not a hang or panic.
		if !strings.Contains(err.Error(), "attempts") {
			t.Fatalf("unexpected error: %v", err)
		}
		return
	}
	if res[1].Counters.Instrs == 0 {
		t.Fatalf("bad result: %+v", res[1])
	}
}

// TestRunLocalWorkerEndToEnd runs real in-process workers against the
// queue and checks the assembled results match a direct local simulation
// bit for bit.
func TestRunLocalWorkerEndToEnd(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	defer q.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go farm.RunLocalWorker(ctx, q, st, "test-worker")
	}

	f, err := st.OpenTrace(key)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := bp.Analyze(f, bp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mc := bp.TableIMachine(1)

	farmed, err := a.SimulatePointsWith(farm.QueueRunner{Q: q, TraceKey: key}, mc, bp.MRUWarmup)
	if err != nil {
		t.Fatal(err)
	}
	local, err := a.SimulatePoints(mc, bp.MRUWarmup)
	if err != nil {
		t.Fatal(err)
	}
	if len(farmed) != len(local) {
		t.Fatalf("farmed %d results, local %d", len(farmed), len(local))
	}
	for r, lres := range local {
		fres, ok := farmed[r]
		if !ok {
			t.Fatalf("region %d missing from farmed results", r)
		}
		fb, _ := json.Marshal(fres)
		lb, _ := json.Marshal(lres)
		if !bytes.Equal(fb, lb) {
			t.Fatalf("region %d: farmed %s != local %s", r, fb, lb)
		}
	}
}
