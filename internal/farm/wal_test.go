package farm

// White-box tests of the queue's write-ahead log: what it journals (one
// record per enqueue and per ended attempt, nothing per lease or
// completion), exact recovery of live tasks, crash points injected between
// every WAL append and its in-memory apply (the crashHook seam), completion
// recovered from the store alone, and compaction as a replay fixpoint.

import (
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
)

// fakeTraceKey is a well-formed content key for queue-level tests that
// never execute tasks (nothing in Enqueue/Lease/Fail opens the trace).
const fakeTraceKey = "abababababababababababababababababababababababababababababababab"

func testConfig() Config {
	return Config{LeaseTTL: time.Minute, MaxAttempts: 3, SweepEvery: time.Hour}
}

func newDurable(t testing.TB, dir string) (*Queue, Recovery, *store.Store, string) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "store", "farm.wal")
	q, rec, err := NewDurableQueue(st, testConfig(), walPath)
	if err != nil {
		t.Fatal(err)
	}
	return q, rec, st, walPath
}

func reopenDurable(t testing.TB, st *store.Store, walPath string) (*Queue, Recovery) {
	t.Helper()
	q, rec, err := NewDurableQueue(st, testConfig(), walPath)
	if err != nil {
		t.Fatal(err)
	}
	return q, rec
}

// crash abandons the queue the way kill -9 would: the sweeper stops and
// the WAL file handle drops, but — unlike Close — nothing is journaled,
// no tickets resolve, and no in-memory cleanup runs.
func crash(q *Queue) {
	q.mu.Lock()
	q.closed = true
	q.wal.Close()
	close(q.stopSweep)
	q.mu.Unlock()
	<-q.sweepDone
}

// walRecords counts the intact records in the journal file at path.
func walRecords(t testing.TB, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, n, err := store.ReplayJournal(f, func(walRecord) {})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func spec(region int) Spec {
	return Spec{TraceKey: fakeTraceKey, Region: region, Sockets: 1, Warmup: "cold"}
}

func resultJSON(t testing.TB) []byte {
	t.Helper()
	b, err := json.Marshal(bp.RegionResult{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestDurableQueueRecoversPendingAndInFlight(t *testing.T) {
	q1, rec, st, walPath := newDurable(t, t.TempDir())
	if rec != (Recovery{}) {
		t.Fatalf("fresh queue reported recovery %+v", rec)
	}
	for r := 0; r < 3; r++ {
		if _, err := q1.Enqueue(spec(r)); err != nil {
			t.Fatal(err)
		}
	}
	leased := q1.Lease("w1", 1)
	if len(leased) != 1 || leased[0].Region != 0 || leased[0].Attempt != 1 {
		t.Fatalf("lease = %+v, want region 0 attempt 1", leased)
	}
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if want := (Recovery{Records: 3, Pending: 3}); rec != want { // the 3 enqueues; the lease is not journaled
		t.Fatalf("recovery = %+v, want %+v", rec, want)
	}

	// Every task comes back pending in enqueue order under its original
	// id, the one in flight at the crash included, and none has used an
	// attempt: the interrupted lease failed nothing.
	got := q2.Lease("w2", 10)
	if len(got) != 3 {
		t.Fatalf("recovered queue leased %d tasks, want 3", len(got))
	}
	for i, task := range got {
		if task.Region != i || task.Attempt != 1 {
			t.Errorf("task %d = region %d attempt %d, want region %d attempt 1", i, task.Region, task.Attempt, i)
		}
	}
	if got[0].ID != leased[0].ID {
		t.Errorf("in-flight task came back as %s, want its original id %s", got[0].ID, leased[0].ID)
	}
	q2.mu.Lock()
	for _, tk := range q2.tasks {
		if len(tk.failures) != 0 {
			t.Errorf("task %s failures = %v after a restart, want none", tk.ID, tk.failures)
		}
	}
	q2.mu.Unlock()

	// Task ids must not collide with the previous life's.
	assertFreshID(t, q2, got)
}

// TestJournalAppendsPerTransition pins what the farm journal records: one
// append per enqueue and one per ended attempt (requeue on a Fail or a
// lease expiry, fail when the attempts run out), and none for a lease or
// a completion, whose facts the queue and the store already keep.
func TestJournalAppendsPerTransition(t *testing.T) {
	q, _, _, _ := newDurable(t, t.TempDir())
	defer q.Close()
	appends := func(want int64, after string) {
		t.Helper()
		if got := q.JournalStats().Appends; got != want {
			t.Fatalf("journal appends after %s = %d, want %d", after, got, want)
		}
	}
	leaseOne := func() Task {
		t.Helper()
		tasks := q.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		return tasks[0]
	}

	if _, err := q.Enqueue(spec(0)); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete("w1", leaseOne().ID, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	appends(1, "enqueue, lease, complete")

	if _, err := q.Enqueue(spec(1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Fail("w1", leaseOne().ID, "worker failure"); err != nil {
		t.Fatal(err)
	}
	appends(3, "a second enqueue and a failed attempt")
	leaseOne()
	q.mu.Lock()
	q.requeueExpiredLocked(time.Now().Add(2 * q.cfg.LeaseTTL))
	q.mu.Unlock()
	appends(4, "a lease expiry")
	if err := q.Fail("w1", leaseOne().ID, "final failure"); err != nil {
		t.Fatal(err)
	}
	appends(5, "a permanent failure")
	if s := q.Stats(); s.Completed != 1 || s.Retries != 2 || s.Failed != 1 {
		t.Fatalf("stats = %+v, want 1 completed, 2 retries, 1 failed", s)
	}
}

// TestRestartCostsNoAttempt: a coordinator restart says nothing about the
// task a worker held, so the recovered task has used no attempt and a
// later failure is retried rather than final.
func TestRestartCostsNoAttempt(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(st.Root(), "farm.wal")
	cfg := testConfig()
	cfg.MaxAttempts = 2
	q1, _, err := NewDurableQueue(st, cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q1.Enqueue(spec(0)); err != nil {
		t.Fatal(err)
	}
	if tasks := q1.Lease("w1", 1); len(tasks) != 1 {
		t.Fatal("no task leased")
	}
	crash(q1)

	q2, _, err := NewDurableQueue(st, cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	tasks := q2.Lease("w2", 1)
	if len(tasks) != 1 || tasks[0].Attempt != 1 {
		t.Fatalf("recovered lease = %+v, want attempt 1", tasks)
	}
	q2.mu.Lock()
	failures := q2.tasks[tasks[0].ID].failures
	q2.mu.Unlock()
	for _, f := range failures {
		if strings.Contains(f, "coordinator restarted") {
			t.Errorf("recovered task failures = %v, want no coordinator-restart entry", failures)
		}
	}
	if err := q2.Fail("w2", tasks[0].ID, "first real failure"); err != nil {
		t.Fatal(err)
	}
	if s := q2.Stats(); s.Retries != 1 || s.Failed != 0 || s.Pending != 1 {
		t.Fatalf("stats after the first failure = %+v, want the task requeued, not failed", s)
	}
}

// assertFreshID enqueues a new point and checks that its task ID carries
// the queue's epoch and is none of the replayed IDs.
func assertFreshID(t *testing.T, q *Queue, replayed []Task) {
	t.Helper()
	if _, err := q.Enqueue(spec(99)); err != nil {
		t.Fatal(err)
	}
	fresh := q.Lease("w-fresh", 1)
	if len(fresh) != 1 {
		t.Fatalf("fresh enqueue after recovery leased %d tasks, want 1", len(fresh))
	}
	id := fresh[0].ID
	if !strings.Contains(id, q.Epoch()) {
		t.Errorf("fresh task id %s does not carry the queue epoch %s", id, q.Epoch())
	}
	for _, r := range replayed {
		if r.ID == id {
			t.Errorf("fresh task id %s reuses a replayed id", id)
		}
	}
}

func TestRecoveredTicketsReattachViaDedup(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	if _, err := q1.Enqueue(spec(5)); err != nil {
		t.Fatal(err)
	}
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if rec.Pending != 1 {
		t.Fatalf("recovery = %+v, want 1 pending", rec)
	}
	// A re-submitted job enqueues the same point and must share the
	// recovered task's ticket rather than duplicating the work.
	tk, err := q2.Enqueue(spec(5))
	if err != nil {
		t.Fatal(err)
	}
	if s := q2.Stats(); s.DedupInflight != 1 || s.Enqueued != 0 {
		t.Fatalf("stats = %+v, want the enqueue to dedup onto the recovered task", s)
	}
	tasks := q2.Lease("w1", 1)
	if len(tasks) != 1 {
		t.Fatal("no task leased")
	}
	if err := q2.Complete("w1", tasks[0].ID, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("re-attached ticket never resolved")
	}
	if _, err := tk.Result(); err != nil {
		t.Fatalf("ticket error: %v", err)
	}
}

func TestRecoveryResolvesStoredArtifacts(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	if _, err := q1.Enqueue(spec(2)); err != nil {
		t.Fatal(err)
	}
	tasks := q1.Lease("w1", 1)
	if len(tasks) != 1 {
		t.Fatal("no task leased")
	}
	// The worker's upload reached the store before the crash; the store
	// holds the completion's only record.
	if err := st.PutArtifact(fakeTraceKey, tasks[0].Artifact, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if rec.StoreHits != 1 || rec.Pending != 0 {
		t.Fatalf("recovery = %+v, want exactly one store hit", rec)
	}
	// And the point is served from cache on re-enqueue.
	tk, err := q2.Enqueue(spec(2))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	default:
		t.Error("re-enqueued point did not resolve from the store")
	}
}

// TestCrashPointPerOp injects a crash between every WAL append and its
// in-memory apply — the window where journal and memory disagree — and
// proves recovery converges to a consistent state for each record type.
func TestCrashPointPerOp(t *testing.T) {
	armHook := func(q *Queue, op string) *int {
		fired := 0
		q.crashHook = func(got string) error {
			if got == op {
				fired++
				return errors.New("injected crash after append, before apply")
			}
			return nil
		}
		return &fired
	}

	t.Run("enqueue", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		fired := armHook(q1, opEnqueue)
		if _, err := q1.Enqueue(spec(0)); err == nil {
			t.Fatal("crashed enqueue reported success")
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		if s := q1.Stats(); s.Pending != 0 || s.Enqueued != 0 {
			t.Fatalf("in-memory state after crashed enqueue: %+v, want untouched", s)
		}
		crash(q1)
		// The record was durable, so the task exists after recovery; the
		// client that saw the error re-enqueues and dedups onto it.
		q2, rec := reopenDurable(t, st, walPath)
		defer q2.Close()
		if rec.Pending != 1 {
			t.Fatalf("recovery = %+v, want the journaled task back", rec)
		}
		if _, err := q2.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		if s := q2.Stats(); s.DedupInflight != 1 {
			t.Fatalf("re-enqueue did not dedup onto recovered task: %+v", s)
		}
	})

	t.Run("requeue", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		if _, err := q1.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		tasks := q1.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		fired := armHook(q1, opRequeue)
		if err := q1.Fail("w1", tasks[0].ID, "simulated failure"); err == nil {
			t.Fatal("crashed fail reported success")
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		// In memory the task is still leased (the transition did not
		// apply); after recovery the journaled requeue has.
		if s := q1.Stats(); s.Leased != 1 || s.Retries != 0 {
			t.Fatalf("in-memory state after crashed requeue: %+v", s)
		}
		crash(q1)
		q2, rec := reopenDurable(t, st, walPath)
		defer q2.Close()
		if rec.Pending != 1 {
			t.Fatalf("recovery = %+v, want 1 pending (requeue applied by replay)", rec)
		}
		q2.mu.Lock()
		var failures []string
		for _, tk := range q2.tasks {
			failures = tk.failures
		}
		q2.mu.Unlock()
		if len(failures) != 1 || !strings.Contains(failures[0], "simulated failure") {
			t.Errorf("recovered failure log = %v, want the journaled attempt failure", failures)
		}
	})

	t.Run("fail", func(t *testing.T) {
		st, err := store.Open(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatal(err)
		}
		walPath := filepath.Join(st.Root(), "farm.wal")
		cfg := testConfig()
		cfg.MaxAttempts = 1 // first failure is permanent
		q1, _, err := NewDurableQueue(st, cfg, walPath)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q1.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		tasks := q1.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		fired := armHook(q1, opFail)
		if err := q1.Fail("w1", tasks[0].ID, "fatal"); err == nil {
			t.Fatal("crashed fail reported success")
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		if s := q1.Stats(); s.Failed != 0 || s.Leased != 1 {
			t.Fatalf("in-memory state after crashed fail: %+v", s)
		}
		crash(q1)
		q2, rec, err := NewDurableQueue(st, cfg, walPath)
		if err != nil {
			t.Fatal(err)
		}
		defer q2.Close()
		if rec.Failed != 1 || rec.Pending != 0 {
			t.Fatalf("recovery = %+v, want the permanent failure applied by replay", rec)
		}
	})
}

// TestCompactionFixpoint verifies that compacting and then replaying the
// journal reconstructs exactly the queue's live state — pending order,
// failed-attempt counts and failure logs, with a task in flight pending
// again at the attempts it had failed — and that compaction is idempotent.
func TestCompactionFixpoint(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	for r := 0; r < 5; r++ {
		if _, err := q1.Enqueue(spec(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Build history: lease two, fail one back to pending, complete one,
	// then lease the next so one task is in flight at the compaction.
	tasks := q1.Lease("w1", 2)
	if len(tasks) != 2 {
		t.Fatalf("leased %d, want 2", len(tasks))
	}
	if err := q1.Fail("w1", tasks[0].ID, "attempt failed"); err != nil {
		t.Fatal(err)
	}
	if err := q1.Complete("w1", tasks[1].ID, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	inFlight := q1.Lease("w1", 1)
	if len(inFlight) != 1 {
		t.Fatal("no task leased")
	}

	type state struct {
		attempts, failures int
	}
	// snapshot lists the queue's live tasks in the order a restart hands
	// them out (pending in queue order, then any in flight by id), each
	// with its failed attempts.
	snapshot := func(q *Queue) (order []string, live map[string]state) {
		q.mu.Lock()
		defer q.mu.Unlock()
		live = make(map[string]state)
		var leased []string
		for _, tk := range q.pending {
			if q.tasks[tk.ID] == tk && !tk.leased {
				order = append(order, tk.ID)
			}
		}
		for id, tk := range q.tasks {
			failed := tk.Attempt
			if tk.leased {
				failed--
				leased = append(leased, id)
			}
			live[id] = state{failed, len(tk.failures)}
		}
		sort.Strings(leased)
		return append(order, leased...), live
	}
	wantOrder, wantLive := snapshot(q1)
	if len(wantOrder) != 4 || wantLive[tasks[0].ID] != (state{1, 1}) || wantLive[inFlight[0].ID] != (state{0, 0}) {
		t.Fatalf("history built order %v, live %+v", wantOrder, wantLive)
	}

	compact := func() int {
		q1.mu.Lock()
		defer q1.mu.Unlock()
		if err := q1.wal.Compact(q1.liveRecordsLocked()); err != nil {
			t.Fatal(err)
		}
		return walRecords(t, walPath)
	}
	recsAfterOnce := compact()
	if recs := compact(); recs != recsAfterOnce {
		t.Fatalf("second compaction changed record count %d -> %d", recsAfterOnce, recs)
	}
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if rec.Pending != len(wantOrder) {
		t.Fatalf("recovery = %+v, want %d live tasks", rec, len(wantOrder))
	}
	gotOrder, gotLive := snapshot(q2)
	if !slices.Equal(gotOrder, wantOrder) {
		t.Errorf("pending after recovery = %v, want %v", gotOrder, wantOrder)
	}
	if !maps.Equal(gotLive, wantLive) {
		t.Errorf("live tasks after recovery = %+v, want %+v", gotLive, wantLive)
	}
}

// TestCompactionTriggersUnderChurn drives enough journal records through
// a small queue to cross the compaction thresholds and checks the log
// shrinks back to the live state.
func TestCompactionTriggersUnderChurn(t *testing.T) {
	q, _, _, walPath := newDurable(t, t.TempDir())
	defer q.Close()
	// Each round is enqueue+lease+complete = 1 record with ~1 live task;
	// the trigger (>= 1024 records and >= 4x live) fires during the churn.
	for i := 0; i < 1100; i++ {
		if _, err := q.Enqueue(spec(i)); err != nil {
			t.Fatal(err)
		}
		tasks := q.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		if err := q.Complete("w1", tasks[0].ID, resultJSON(t)); err != nil {
			t.Fatal(err)
		}
	}
	s := q.JournalStats()
	if s.Compactions < 1 {
		t.Fatalf("no compaction after %d appends (stats %+v)", s.Appends, s)
	}
	// store.Journal's thresholds: at least 1024 records, 4 per live task.
	if recs := walRecords(t, walPath); recs >= 1024+4 {
		t.Errorf("journal still holds %d records after compaction", recs)
	}
}

func TestInMemoryQueueUnaffected(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueue(st, testConfig())
	defer q.Close()
	if _, err := q.Enqueue(spec(0)); err != nil {
		t.Fatal(err)
	}
	s := q.JournalStats()
	if s.Appends != 0 || s.Bytes != 0 {
		t.Fatalf("in-memory queue touched a WAL: %+v", s)
	}
	if q.Recovery() != (Recovery{}) {
		t.Fatalf("in-memory queue reported recovery %+v", q.Recovery())
	}
}

// TestStaleWorkerIDGetsNoLease: a worker id minted by a previous queue life
// leases nothing from the restarted queue, and its late heartbeat, result
// and failure report make it no member of the new fleet. The result is
// still accepted.
func TestStaleWorkerIDGetsNoLease(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	staleID := q1.Register("old-life")
	for region := range 2 {
		if _, err := q1.Enqueue(spec(region)); err != nil {
			t.Fatal(err)
		}
	}
	held := q1.Lease(staleID, 2)
	crash(q1)

	q2, _ := reopenDurable(t, st, walPath)
	defer q2.Close()
	if tasks := q2.Lease(staleID, 1); len(tasks) != 0 {
		t.Fatalf("restarted queue leased %d tasks to a previous-epoch worker id", len(tasks))
	}
	if dropped := q2.Heartbeat(staleID, []string{held[0].ID, held[1].ID}); len(dropped) != 2 {
		t.Errorf("stale heartbeat dropped %v, want both leases", dropped)
	}
	if err := q2.Complete(staleID, held[0].ID, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	if err := q2.Fail(staleID, held[1].ID, "late failure"); err != nil {
		t.Fatal(err)
	}
	if w, live := q2.Workers(), q2.LiveWorkers(); len(w) != 0 || live != 0 {
		t.Errorf("a previous-life id joined the fleet: workers %+v, %d live", w, live)
	}
	if s := q2.Stats(); s.Completed != 1 || s.Retries != 0 {
		t.Errorf("stats %+v, want the late result accepted and the late failure ignored", s)
	}
	// Free-form ids still auto-register and lease (test and ad-hoc
	// clients depend on it), and a fresh registration works.
	if tasks := q2.Lease("adhoc", 1); len(tasks) != 1 {
		t.Fatal("free-form worker id could not lease")
	}
	if q1.Epoch() == q2.Epoch() {
		t.Error("restarted queue kept the same epoch")
	}
}

// TestRecoversParentWrittenWAL pins cross-version compatibility:
// testdata/parent-farm.wal was written by the bpserve binary of the commit
// before the queue moved onto store.Journal (974eda0), which journaled
// lease and complete records too. Replay skips those, so the log recovers
// to the same task ids in a stable order, with attempts counted from its
// requeue records, and the store alone decides which task completed.
//
// To regenerate (together with internal/service/testdata/parent-jobs.wal,
// which comes from the same run), build bptool and bpserve from that
// commit and, against a fresh store:
//
//	bptool record -workload npb-is -cores 8 -scale 0.05 -o is.bptrace
//	bpserve -addr $A -store $S &
//	POST /v1/traces            is.bptrace                      → key
//	POST /v1/jobs              {"kind":"analyze","trace":key}  → job-000001; poll until done
//	POST /farm/register        {"name":"fixture"}              → worker w (auto mode now farms)
//	POST /v1/jobs              {"kind":"estimate","trace":key,"warmup":"cold"} → job-000002
//	                           (stays live: it waits on 11 farm tasks nobody will finish)
//	POST /farm/lease           {"worker":w,"max":3}            → task-000001..3
//	POST /farm/result          {"worker":w,"task":"task-000001","result":{}}
//	POST /farm/result          {"worker":w,"task":"task-000002","error":"fixture failure"}
//	POST /farm/lease           {"worker":w,"max":1}            → task-000004
//	POST /v1/jobs              {"kind":"simulate","trace":key} → job-000003; poll until done
//	kill -9 bpserve
//	cp $S/farm.wal parent-farm.wal; cp $S/jobs.wal parent-jobs.wal
//	truncate -s -10 parent-farm.wal parent-jobs.wal   # tear each final frame
func TestRecoversParentWrittenWAL(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-farm.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// 11 enqueues, 3 leases, a complete and a requeue; the 17th frame (a
	// fourth lease) is torn. Only the enqueues and the requeue shape the
	// recovered queue.
	enqueueOrder := []string{"task-000001", "task-000003", "task-000004", "task-000005", "task-000006",
		"task-000007", "task-000008", "task-000009", "task-000010", "task-000011", "task-000002"}
	recoverFixture := func(t *testing.T, stored bool) {
		dir := t.TempDir()
		st, err := store.Open(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		wantIDs, want := enqueueOrder, Recovery{Records: 16, Dropped: 70, Pending: 11}
		if stored {
			// The parent's store held task-000001's result when the log
			// was captured; put it back.
			s, _, _, err := replayWALReader(raw)
			if err != nil {
				t.Fatal(err)
			}
			done, ok := s.tasks["task-000001"]
			if !ok {
				t.Fatal("replay dropped task-000001")
			}
			if err := st.PutArtifact(done.TraceKey, done.Artifact, resultJSON(t)); err != nil {
				t.Fatal(err)
			}
			wantIDs, want = enqueueOrder[1:], Recovery{Records: 16, Dropped: 70, Pending: 10, StoreHits: 1}
		}
		walPath := filepath.Join(dir, "farm.wal")
		if err := os.WriteFile(walPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		q, rec, err := NewDurableQueue(st, testConfig(), walPath)
		if err != nil {
			t.Fatal(err)
		}
		defer q.Close()
		if rec != want {
			t.Fatalf("recovery = %+v, want %+v", rec, want)
		}
		// Every live task in enqueue order under its original id, except
		// the one its worker failed back, which comes last on its second
		// attempt; the tasks leased at the crash have used no attempt.
		got := q.Lease("w-new", 20)
		if len(got) != len(wantIDs) {
			t.Fatalf("leased %d recovered tasks, want %d", len(got), len(wantIDs))
		}
		for i, task := range got {
			wantAttempt := 1
			if task.ID == "task-000002" {
				wantAttempt = 2
			}
			if task.ID != wantIDs[i] || task.Attempt != wantAttempt || task.TraceKey[:8] != "0d0f23f1" {
				t.Errorf("task %d = %s attempt %d trace %.8s, want %s attempt %d", i, task.ID, task.Attempt, task.TraceKey, wantIDs[i], wantAttempt)
			}
		}
		q.mu.Lock()
		failed, interrupted := q.tasks["task-000002"].failures, q.tasks["task-000003"].failures
		q.mu.Unlock()
		if len(failed) != 1 || !strings.Contains(failed[0], "fixture failure") {
			t.Errorf("task-000002 failures = %v, want the journaled worker failure", failed)
		}
		if len(interrupted) != 0 {
			t.Errorf("task-000003 failures = %v, want none", interrupted)
		}
		// Fresh ids cannot collide with any id the parent issued.
		assertFreshID(t, q, got)
	}
	t.Run("fresh-store", func(t *testing.T) { recoverFixture(t, false) })
	t.Run("stored-result", func(t *testing.T) { recoverFixture(t, true) })
}

// TestLateUploadAfterRestartCompletesNothing: a worker finishing a lease
// from the previous coordinator life uploads under that life's task ID. Had
// the restarted queue reissued the ID, the result would be filed under
// another region's artifact; IDs carry the queue epoch, so the upload
// matches no live task.
func TestLateUploadAfterRestartCompletesNothing(t *testing.T) {
	check := func(t *testing.T, q *Queue, st *store.Store, oldID string) {
		t.Helper()
		if _, err := q.Enqueue(spec(1)); err != nil {
			t.Fatal(err)
		}
		if err := q.Complete("w1", oldID, resultJSON(t)); err != nil {
			t.Fatal(err)
		}
		if st.HasArtifact(fakeTraceKey, PointArtifact(1, bp.TableIMachine(1), "cold")) {
			t.Error("late upload under a previous life's task ID was stored as region 1's result")
		}
		if s := q.Stats(); s.Pending != 1 || s.Completed != 0 {
			t.Errorf("stats = %+v, want region 1's task still pending", s)
		}
	}
	t.Run("in-memory", func(t *testing.T) {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		q1 := NewQueue(st, testConfig())
		if _, err := q1.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		tasks := q1.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		q1.Close()
		q2 := NewQueue(st, testConfig())
		defer q2.Close()
		check(t, q2, st, tasks[0].ID)
	})
	t.Run("durable", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		if _, err := q1.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		tasks := q1.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		if err := q1.Complete("w1", tasks[0].ID, resultJSON(t)); err != nil {
			t.Fatal(err)
		}
		crash(q1)
		q2, _ := reopenDurable(t, st, walPath)
		defer q2.Close()
		check(t, q2, st, tasks[0].ID)
	})
}
