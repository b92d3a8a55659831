package farm

// White-box tests of the queue's write-ahead log: exact recovery of
// pending and in-flight tasks, crash points injected between every WAL
// append and its in-memory apply (the crashHook seam), the
// artifact-already-stored race, and compaction as a replay fixpoint.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
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
	if rec.Pending != 2 || rec.Requeued != 1 || rec.StoreHits != 0 {
		t.Fatalf("recovery = %+v, want 2 pending, 1 requeued", rec)
	}
	if rec.Records != 4 { // 3 enqueues + 1 lease
		t.Errorf("recovery replayed %d records, want 4", rec.Records)
	}

	// Pending tasks come back first in their original order, then the
	// interrupted lease; the recovered lease keeps its attempt count, so
	// re-leasing it is attempt 2.
	got := q2.Lease("w2", 10)
	if len(got) != 3 {
		t.Fatalf("recovered queue leased %d tasks, want 3", len(got))
	}
	wantRegions := []int{1, 2, 0}
	wantAttempts := []int{1, 1, 2}
	for i, task := range got {
		if task.Region != wantRegions[i] || task.Attempt != wantAttempts[i] {
			t.Errorf("task %d = region %d attempt %d, want region %d attempt %d",
				i, task.Region, task.Attempt, wantRegions[i], wantAttempts[i])
		}
	}
	// The interruption is on the record for the requeued task.
	q2.mu.Lock()
	var interrupted *task
	for _, tk := range q2.tasks {
		if tk.Region == 0 {
			interrupted = tk
		}
	}
	q2.mu.Unlock()
	if interrupted == nil || len(interrupted.failures) != 1 ||
		!strings.Contains(interrupted.failures[0], "coordinator restarted") {
		t.Errorf("requeued task failures = %v, want one coordinator-restart entry", interrupted.failures)
	}

	// Task ids must not collide with the previous life's.
	assertFreshID(t, q2, got)
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
	// The worker's upload reached the store, but the crash beat the
	// journal's complete record.
	if err := st.PutArtifact(fakeTraceKey, tasks[0].Artifact, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	crash(q1)

	q2, rec := reopenDurable(t, st, walPath)
	defer q2.Close()
	if rec.StoreHits != 1 || rec.Pending != 0 || rec.Requeued != 0 {
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

	t.Run("lease", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		if _, err := q1.Enqueue(spec(0)); err != nil {
			t.Fatal(err)
		}
		fired := armHook(q1, opLease)
		if tasks := q1.Lease("w1", 1); len(tasks) != 0 {
			t.Fatalf("crashed lease handed out %d tasks", len(tasks))
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		// In memory the task went back to pending; disarm and verify it
		// leases cleanly.
		q1.crashHook = nil
		if tasks := q1.Lease("w1", 1); len(tasks) != 1 {
			t.Fatal("task lost after crashed lease")
		}
		crash(q1)
		// The journal holds two lease records; replay treats the task as
		// in-flight and requeues it.
		q2, rec := reopenDurable(t, st, walPath)
		defer q2.Close()
		if rec.Requeued != 1 || rec.Pending != 0 {
			t.Fatalf("recovery = %+v, want 1 requeued", rec)
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
		if rec.Pending != 1 || rec.Requeued != 0 {
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

	t.Run("complete", func(t *testing.T) {
		q1, _, st, walPath := newDurable(t, t.TempDir())
		tk, err := q1.Enqueue(spec(0))
		if err != nil {
			t.Fatal(err)
		}
		tasks := q1.Lease("w1", 1)
		if len(tasks) != 1 {
			t.Fatal("no task leased")
		}
		fired := armHook(q1, opComplete)
		if err := q1.Complete("w1", tasks[0].ID, resultJSON(t)); err == nil {
			t.Fatal("crashed complete reported success")
		}
		if *fired != 1 {
			t.Fatalf("crash hook fired %d times, want 1", *fired)
		}
		select {
		case <-tk.Done():
			t.Fatal("ticket resolved although the apply never ran")
		default:
		}
		crash(q1)
		q2, rec := reopenDurable(t, st, walPath)
		defer q2.Close()
		if rec.Completed != 1 || rec.Pending != 0 || rec.Requeued != 0 {
			t.Fatalf("recovery = %+v, want the completion applied by replay", rec)
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
		if rec.Failed != 1 || rec.Pending != 0 || rec.Requeued != 0 {
			t.Fatalf("recovery = %+v, want the permanent failure applied by replay", rec)
		}
	})
}

// TestCompactionFixpoint verifies that compacting and then replaying the
// journal reconstructs exactly the queue's live state, including pending
// order, attempt counts and failure logs — and that compaction is
// idempotent.
func TestCompactionFixpoint(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	for r := 0; r < 5; r++ {
		if _, err := q1.Enqueue(spec(r)); err != nil {
			t.Fatal(err)
		}
	}
	// Build history: lease two, fail one back to pending, complete one.
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

	snapshot := func(q *Queue) (pending []string, leased map[string]int, failures map[string]int) {
		q.mu.Lock()
		defer q.mu.Unlock()
		leased = make(map[string]int)
		failures = make(map[string]int)
		for _, tk := range q.pending {
			if q.tasks[tk.ID] == tk && !tk.leased {
				pending = append(pending, tk.ID)
			}
		}
		for id, tk := range q.tasks {
			if tk.leased {
				leased[id] = tk.Attempt
			}
			failures[id] = len(tk.failures)
		}
		return
	}
	wantPending, wantLeased, wantFailures := snapshot(q1)

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
	if rec.Pending+rec.Requeued != len(wantPending)+len(wantLeased) {
		t.Fatalf("recovery = %+v, want %d live tasks", rec, len(wantPending)+len(wantLeased))
	}
	gotPending, _, gotFailures := snapshot(q2)
	// Recovered order: the compacted pending order first, then requeued
	// leases.
	for i, id := range wantPending {
		if i >= len(gotPending) || gotPending[i] != id {
			t.Fatalf("pending after recovery = %v, want prefix %v", gotPending, wantPending)
		}
	}
	for id, attempt := range wantLeased {
		q2.mu.Lock()
		tk, ok := q2.tasks[id]
		q2.mu.Unlock()
		if !ok {
			t.Fatalf("leased task %s lost in compaction", id)
		}
		if tk.Attempt != attempt {
			t.Errorf("task %s attempt %d after recovery, want %d", id, tk.Attempt, attempt)
		}
	}
	for id, n := range wantFailures {
		// Requeued in-flight tasks gain one coordinator-restart entry.
		extra := 0
		if _, wasLeased := wantLeased[id]; wasLeased {
			extra = 1
		}
		if got := gotFailures[id]; got != n+extra {
			t.Errorf("task %s has %d failure entries after recovery, want %d", id, got, n+extra)
		}
	}
}

// TestCompactionTriggersUnderChurn drives enough journal records through
// a small queue to cross the compaction thresholds and checks the log
// shrinks back to the live state.
func TestCompactionTriggersUnderChurn(t *testing.T) {
	q, _, _, walPath := newDurable(t, t.TempDir())
	defer q.Close()
	// Each round is enqueue+lease+complete = 3 records with ~1 live task;
	// the trigger (>= 1024 records and >= 4x live) fires during the churn.
	for i := 0; i < 400; i++ {
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
	s := q.Stats()
	if s.WALCompactions < 1 {
		t.Fatalf("no compaction after %d appends (stats %+v)", s.WALAppends, s)
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
	s := q.Stats()
	if s.WALAppends != 0 || s.WALBytes != 0 {
		t.Fatalf("in-memory queue touched a WAL: %+v", s)
	}
	if q.Recovery() != (Recovery{}) {
		t.Fatalf("in-memory queue reported recovery %+v", q.Recovery())
	}
}

func TestStaleWorkerIDGetsNoLease(t *testing.T) {
	q1, _, st, walPath := newDurable(t, t.TempDir())
	staleID := q1.Register("old-life")
	if _, err := q1.Enqueue(spec(0)); err != nil {
		t.Fatal(err)
	}
	crash(q1)

	q2, _ := reopenDurable(t, st, walPath)
	defer q2.Close()
	if tasks := q2.Lease(staleID, 1); len(tasks) != 0 {
		t.Fatalf("restarted queue leased %d tasks to a previous-epoch worker id", len(tasks))
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
// before the queue moved onto store.Journal (974eda0), and must recover to
// the same report, the same task ids and the same order that commit
// recovered it to.
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
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
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
	// 11 enqueues, 3 leases, a complete and a requeue; the 17th frame (a
	// fourth lease) is torn, so task-000004 is still pending.
	want := Recovery{Records: 16, Dropped: 70, Pending: 9, Requeued: 1, Completed: 1}
	if rec != want {
		t.Fatalf("recovery = %+v, want %+v", rec, want)
	}
	// Untouched tasks first in enqueue order, then the interrupted lease,
	// then the task its worker failed back — each under its original id.
	wantIDs := []string{"task-000004", "task-000005", "task-000006", "task-000007", "task-000008",
		"task-000009", "task-000010", "task-000011", "task-000003", "task-000002"}
	got := q.Lease("w-new", 20)
	if len(got) != len(wantIDs) {
		t.Fatalf("leased %d recovered tasks, want %d", len(got), len(wantIDs))
	}
	for i, task := range got {
		wantAttempt := 1
		if i >= 8 {
			wantAttempt = 2 // both had used attempt 1 in the previous life
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
	if len(interrupted) != 1 || !strings.Contains(interrupted[0], "coordinator restarted") {
		t.Errorf("task-000003 failures = %v, want one coordinator-restart entry", interrupted)
	}
	// Fresh ids cannot collide with any id the parent issued.
	assertFreshID(t, q, got)
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
