package farm

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// workerStore returns a store holding one recorded workload and its key.
func workerStore(t testing.TB, name string, scale float64) (*store.Store, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New(name, 8, workload.WithScale(scale))); err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return st, key
}

// fakeCoord is a scripted coordinator: the Transport a Worker is tested
// against, with no queue, no HTTP and no clock of its own.
type fakeCoord struct {
	mu        sync.Mutex
	ttl       time.Duration    // the lease TTL every registration gets
	regErrs   []error          // Register fails with these, in order, before it succeeds
	leaseErrs []error          // Lease fails with these, in order, before it hands out tasks (nil: no failure)
	sessions  int              // successful Register calls; the n-th registers as "w<n>"
	queue     []Task           // handed out in order, up to max per Lease
	asked     []int            // max of every Lease call
	uploadErr map[string]error // Complete and Fail refuse delivery for these task ids
	drop      map[string]bool  // Heartbeat reports these ids dropped
	results   map[string][]bp.RegionResult
	failures  map[string]string // delivered failure reports
	gate      chan struct{}     // when set, Complete blocks until it is closed
	// beats receives the ids of every Heartbeat call; the buffer outlasts any
	// test here, and a full one drops the beat rather than block the loop.
	beats chan []string
}

func newFakeCoord(tasks ...Task) *fakeCoord {
	return &fakeCoord{ttl: time.Minute, queue: tasks, results: map[string][]bp.RegionResult{}, failures: map[string]string{}, beats: make(chan []string, 4096)}
}

func (f *fakeCoord) Register(string) (string, time.Duration, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.regErrs) > 0 {
		err := f.regErrs[0]
		f.regErrs = f.regErrs[1:]
		return "", 0, err
	}
	f.sessions++
	return "w" + strconv.Itoa(f.sessions), f.ttl, nil
}

func (f *fakeCoord) Lease(max int) ([]Task, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.leaseErrs) > 0 {
		err := f.leaseErrs[0]
		if f.leaseErrs = f.leaseErrs[1:]; err != nil {
			return nil, err
		}
	}
	f.asked = append(f.asked, max)
	n := min(max, len(f.queue))
	out := slices.Clone(f.queue[:n])
	f.queue = f.queue[n:]
	return out, nil
}

func (f *fakeCoord) Heartbeat(ids []string) ([]string, error) {
	ids = slices.Sorted(slices.Values(ids))
	select {
	case f.beats <- ids:
	default:
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var dropped []string
	for _, id := range ids {
		if f.drop[id] {
			dropped = append(dropped, id)
		}
	}
	return dropped, nil
}

func (f *fakeCoord) Complete(t Task, res []bp.RegionResult) error {
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.uploadErr[t.ID]; err != nil {
		return err
	}
	f.results[t.ID] = res
	return nil
}

func (f *fakeCoord) Fail(t Task, msg string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.uploadErr[t.ID]; err != nil {
		return err
	}
	f.failures[t.ID] = msg
	return nil
}

func (f *fakeCoord) FetchTrace(*store.Store, string) error { return nil }

// nextBeat returns the next Heartbeat call's ids.
func (f *fakeCoord) nextBeat(t *testing.T) []string {
	t.Helper()
	select {
	case ids := <-f.beats:
		return ids
	case <-time.After(30 * time.Second):
		t.Fatal("no heartbeat")
		return nil
	}
}

// TestWorkerBudgetCountsDeliveredOutcomes: -max-tasks counts outcomes the
// coordinator received — a result or a failure report — and nothing else. An
// upload or a failure report that could not be delivered leaves the budget
// alone, and the worker never leases more than the budget has left.
func TestWorkerBudgetCountsDeliveredOutcomes(t *testing.T) {
	st, key := workerStore(t, "npb-is", 0.05)
	task := func(id string, region int) Task {
		return Task{ID: id, TraceKey: key, Region: region, Sockets: 1, Warmup: "cold"}
	}
	coord := newFakeCoord(
		task("result-lost", 1), task("failure-delivered", 9999),
		task("failure-lost", 9999),
		task("result-delivered", 2),
		task("never-leased", 3))
	lost := errors.New("coordinator unreachable")
	coord.uploadErr = map[string]error{"result-lost": lost, "failure-lost": lost}

	var log bytes.Buffer
	w := NewWorker(coord, st, obs.NewSpanRecorder(), slog.New(slog.NewTextHandler(&log, nil)))
	w.Concurrency, w.MaxTasks, w.Poll = 4, 2, time.Millisecond
	if err := w.Run(context.Background(), "w"); err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 1, 1}; !slices.Equal(coord.asked, want) {
		t.Errorf("lease sizes %v, want %v (never more than the budget has left)", coord.asked, want)
	}
	if len(coord.queue) != 1 || coord.queue[0].ID != "never-leased" {
		t.Errorf("left on the queue: %+v, want only never-leased", coord.queue)
	}
	if _, ok := coord.results["result-delivered"]; !ok || len(coord.results) != 1 {
		t.Errorf("delivered results %v, want result-delivered only", coord.results)
	}
	if _, ok := coord.failures["failure-delivered"]; !ok || len(coord.failures) != 1 {
		t.Errorf("delivered failures %v, want failure-delivered only", coord.failures)
	}
	if !strings.Contains(log.String(), "settled 2 tasks, exiting") {
		t.Errorf("missing exit line:\n%s", log.String())
	}
}

// TestWorkerStopsRenewingDroppedLease: once the coordinator answers a
// heartbeat with a lease in "dropped", later heartbeats leave it out while
// the batch's other leases stay renewed; the dropped task's result is still
// uploaded.
func TestWorkerStopsRenewingDroppedLease(t *testing.T) {
	st, key := workerStore(t, "npb-is", 0.05)
	coord := newFakeCoord(
		Task{ID: "dropped", TraceKey: key, Region: 1, Sockets: 1, Warmup: "cold"},
		Task{ID: "kept", TraceKey: key, Region: 2, Sockets: 1, Warmup: "cold"})
	coord.drop = map[string]bool{"dropped": true}
	coord.gate = make(chan struct{})
	coord.ttl = 15 * time.Millisecond

	w := NewWorker(coord, st, obs.NewSpanRecorder(), nil)
	w.Concurrency, w.Poll, w.IdleExit = 2, time.Millisecond, time.Millisecond
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background(), "w") }()

	if ids, want := coord.nextBeat(t), []string{"dropped", "kept"}; !slices.Equal(ids, want) {
		t.Errorf("first heartbeat renews %v, want %v", ids, want)
	}
	for i := 0; i < 3; i++ {
		if ids, want := coord.nextBeat(t), []string{"kept"}; !slices.Equal(ids, want) {
			t.Errorf("heartbeat after the drop renews %v, want %v", ids, want)
		}
	}
	close(coord.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(coord.results) != 2 {
		t.Errorf("uploaded %d results, want both (a dropped lease's result is still accepted)", len(coord.results))
	}
}

// TestWorkerRenewsLeasesWhileDraining: a signalled worker stops leasing but
// finishes the batch it holds, and the heartbeat loop outlives the signal
// until that batch has settled.
func TestWorkerRenewsLeasesWhileDraining(t *testing.T) {
	st, key := workerStore(t, "npb-is", 0.05)
	coord := newFakeCoord(
		Task{ID: "held", TraceKey: key, Region: 1, Sockets: 1, Warmup: "cold"},
		Task{ID: "after-signal", TraceKey: key, Region: 2, Sockets: 1, Warmup: "cold"})
	coord.gate = make(chan struct{})
	coord.ttl = 15 * time.Millisecond

	w := NewWorker(coord, st, obs.NewSpanRecorder(), nil)
	w.Poll = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx, "w") }()

	coord.nextBeat(t) // the batch is held
	cancel()
	for len(coord.beats) > 0 { // beats from before the signal
		<-coord.beats
	}
	for i := 0; i < 3; i++ {
		if ids, want := coord.nextBeat(t), []string{"held"}; !slices.Equal(ids, want) {
			t.Errorf("heartbeat after the signal renews %v, want %v", ids, want)
		}
	}
	close(coord.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, ok := coord.results["held"]; !ok || len(coord.results) != 1 || len(coord.queue) != 1 {
		t.Errorf("results %v, %d tasks unleased; want the held task finished and nothing leased after the signal", coord.results, len(coord.queue))
	}
}

// TestWorkerKeepsItsIDWhenLeasesAreForgotten: the coordinator forgets every
// lease mid-session, as a restarted one does. The worker stops renewing the
// task it holds but still uploads its result, and Run serves the next task
// under its first id, after exactly one registration.
func TestWorkerKeepsItsIDWhenLeasesAreForgotten(t *testing.T) {
	st, key := workerStore(t, "npb-is", 0.05)
	coord := newFakeCoord(Task{ID: "before-restart", TraceKey: key, Region: 1, Sockets: 1, Warmup: "cold"})
	coord.gate = make(chan struct{})
	coord.ttl = 15 * time.Millisecond

	spans := obs.NewSpanRecorder()
	w := NewWorker(coord, st, spans, nil)
	w.Poll, w.MaxTasks = time.Millisecond, 2
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background(), "w") }()

	coord.nextBeat(t) // the first task is held
	coord.mu.Lock()
	coord.drop = map[string]bool{"before-restart": true, "after-restart": true}
	coord.queue = append(coord.queue, Task{ID: "after-restart", TraceKey: key, Region: 2, Sockets: 1, Warmup: "cold"})
	coord.mu.Unlock()
	for deadline := time.Now().Add(30 * time.Second); len(w.heldIDs()) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker kept renewing a forgotten lease")
		}
	}
	close(coord.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if coord.sessions != 1 {
		t.Errorf("%d registrations, want 1", coord.sessions)
	}
	if len(coord.results) != 2 {
		t.Errorf("results %v, want both tasks' (a forgotten lease's result is still uploaded)", coord.results)
	}
	sp := spans.Spans()
	if len(sp) != 2 {
		t.Fatalf("%d task spans, want 2", len(sp))
	}
	for _, s := range sp {
		if s.Attrs["worker"] != "w1" {
			t.Errorf("task %s ran as worker %q, want w1", s.Attrs["task"], s.Attrs["worker"])
		}
	}
}

// TestWorkerRegistrationGivesUp: Run gives up after maxRegisterFailures
// failed registrations in a row, and one fewer followed by a success serves
// as usual. Poll is a nanosecond so the doubling back-off stays short.
func TestWorkerRegistrationGivesUp(t *testing.T) {
	down := errors.New("coordinator down")
	for _, failures := range []int{maxRegisterFailures, maxRegisterFailures - 1} {
		coord := newFakeCoord()
		for range failures {
			coord.regErrs = append(coord.regErrs, down)
		}
		w := NewWorker(coord, nil, nil, nil)
		w.Poll, w.IdleExit = time.Nanosecond, time.Nanosecond
		err := w.Run(context.Background(), "w")
		if gaveUp := failures == maxRegisterFailures; gaveUp != errors.Is(err, down) {
			t.Errorf("after %d failed registrations Run = %v, want giving up %v", failures, err, gaveUp)
		}
		if want := min(1, maxRegisterFailures-failures); coord.sessions != want {
			t.Errorf("after %d failed registrations: %d sessions, want %d", failures, coord.sessions, want)
		}
	}
}

// TestWorkerBackOffResetsOnSuccess: failed registrations and leases share one
// back-off that doubles from Poll, and any success resets it to Poll.
func TestWorkerBackOffResetsOnSuccess(t *testing.T) {
	down := errors.New("coordinator down")
	coord := newFakeCoord()
	coord.regErrs = []error{down, down}
	coord.leaseErrs = []error{down, down, nil, down}

	var log bytes.Buffer
	w := NewWorker(coord, nil, nil, slog.New(slog.NewTextHandler(&log, nil)))
	w.Poll, w.IdleExit = time.Microsecond, time.Microsecond
	if err := w.Run(context.Background(), "w"); err != nil {
		t.Fatal(err)
	}
	var backoffs []string
	for _, line := range strings.Split(log.String(), "\n") {
		if _, after, ok := strings.Cut(line, "backoff="); ok {
			_, msg, _ := strings.Cut(line, `msg="`)
			msg, _, _ = strings.Cut(msg, `"`)
			backoffs = append(backoffs, msg+" "+strings.Fields(after)[0])
		}
	}
	want := []string{
		"register failed 1µs", "register failed 2µs",
		"lease failed 1µs", "lease failed 2µs", // reset by the registration
		"lease failed 1µs", // reset by the lease that succeeded in between
	}
	if !slices.Equal(backoffs, want) {
		t.Errorf("back-offs %q, want %q\n%s", backoffs, want, log.String())
	}
}

// TestWorkerBatchIsOnePrefixPass drives the worker's batch path the way
// -concurrency 4 does: leases of four tasks of one trace, each handed to
// process in shuffled order. process sorts a batch into pass order and takes
// its snapshots serially before the simulations fan out, so the job costs
// the worker exactly one prefix pass — visible as numbers on /metrics and as
// prefix_from/prefix_to on every farm-task span — and every uploaded result
// is the one a fresh Executor computes. Run under -race.
func TestWorkerBatchIsOnePrefixPass(t *testing.T) {
	st, key := workerStore(t, "npb-is", 0.05)
	regions := []int{0, 1, 2, 3, 5, 6, 8, 10}
	coord := newFakeCoord()
	for _, region := range regions {
		coord.queue = append(coord.queue, Task{ID: strconv.Itoa(region), TraceKey: key, Region: region, Sockets: 1, Warmup: "mru"})
	}
	spans := obs.NewSpanRecorder()
	w := NewWorker(coord, st, spans, nil)
	rng := rand.New(rand.NewSource(16))
	for settled := 0; settled < len(regions); {
		tasks, _ := coord.Lease(4)
		rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
		settled += w.process(tasks)
	}

	for _, region := range regions {
		want, err := NewExecutor(st).Execute(Task{TraceKey: key, Region: region, Sockets: 1, Warmup: "mru"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(coord.results[strconv.Itoa(region)], want) {
			t.Errorf("region %d: batched worker result differs from a fresh Executor's", region)
		}
	}

	var metrics bytes.Buffer
	if err := w.Metrics.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bpworker_prefix_pass_restarted_total 1\n",
		"bpworker_prefix_pass_resumed_total 7\n",
		"bpworker_prefix_pass_regions_total 10\n", // one pass over regions [0, 10)
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics.String())
		}
	}
	tracked := 0
	for _, sp := range spans.Spans() {
		from, err1 := strconv.Atoi(sp.Attrs["prefix_from"])
		to, err2 := strconv.Atoi(sp.Attrs["prefix_to"])
		if err1 != nil || err2 != nil || from > to {
			t.Fatalf("span lacks prefix_from/prefix_to: %+v", sp.Attrs)
		}
		tracked += to - from
	}
	if tracked != 10 {
		t.Errorf("spans account for %d tracked regions, want 10", tracked)
	}
}

// TestLocalWorkerKeepsLeasePastTTL: an in-process worker heartbeats like a
// remote one, so a task that takes several lease TTLs to simulate is not
// expired under it and handed out again. The TTL is a quarter of the task's
// own measured duration, and the trace grows until that duration is long
// enough for the heartbeat interval to be met on a loaded host (the race
// detector gets there at the first scale).
func TestLocalWorkerKeepsLeasePastTTL(t *testing.T) {
	var (
		st  *store.Store
		sp  Spec
		ttl time.Duration
	)
	for _, scale := range []float64{0.1, 0.25, 0.5} {
		var key string
		st, key = workerStore(t, "npb-cg", scale)
		f, err := st.OpenTrace(key)
		if err != nil {
			t.Fatal(err)
		}
		sp = Spec{TraceKey: key, Region: f.Regions() - 1, Sockets: 1, Warmup: "mru+prev"}
		f.Close()
		start := time.Now()
		if _, err := NewExecutor(st).Execute(Task{TraceKey: key, Region: sp.Region, Sockets: 1, Warmup: sp.Warmup}, nil); err != nil {
			t.Fatal(err)
		}
		ttl = time.Since(start) / 4
		t.Logf("npb-cg x%v: task takes %v, lease TTL %v", scale, 4*ttl, ttl)
		if ttl >= 60*time.Millisecond {
			break
		}
	}

	q := NewQueue(st, Config{LeaseTTL: ttl, MaxAttempts: 1})
	defer q.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go RunLocalWorker(ctx, q, st, "slow-task")
	tk, err := q.Enqueue(sp)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(time.Minute):
		t.Fatal("ticket did not resolve")
	}
	if _, err := tk.Result(); err != nil {
		t.Errorf("task failed: %v", err)
	}
	if s := q.Stats(); s.Expired != 0 || s.Completed != 1 {
		t.Errorf("stats %+v, want the one lease held to completion (Expired 0, Completed 1)", s)
	}
}

// TestFetchTraceCorruptKeepsHeldTrace: a transfer whose bytes hash to a trace
// the worker already holds fails as corrupt, and leaves that trace and the
// results cached under it in place.
func TestFetchTraceCorruptKeepsHeldTrace(t *testing.T) {
	st, held := workerStore(t, "npb-is", 0.05)
	const cached = "point-result.json"
	if err := st.PutArtifact(held, cached, []byte("{}")); err != nil {
		t.Fatal(err)
	}
	p, err := st.TracePath(held)
	if err != nil {
		t.Fatal(err)
	}
	heldBytes, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	wanted := strings.Repeat("0", 64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/farm/trace/"+wanted {
			http.NotFound(w, r)
			return
		}
		w.Write(heldBytes)
	}))
	defer srv.Close()

	c := &Client{Base: srv.URL, Retry: RetryPolicy{Attempts: 1}}
	if err := c.FetchTrace(st, wanted); err == nil || !strings.Contains(err.Error(), "corrupt transfer") {
		t.Fatalf("FetchTrace = %v, want the corrupt-transfer error", err)
	}
	if !st.HasTrace(held) || !st.HasArtifact(held, cached) {
		t.Errorf("corrupt transfer deleted the held trace (present %v) or its cached result (present %v)",
			st.HasTrace(held), st.HasArtifact(held, cached))
	}
	if st.HasTrace(wanted) {
		t.Error("the requested key is stored although its bytes never arrived")
	}
}
