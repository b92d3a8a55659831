package farm

// White-box tests of what a queue life leaves to the next one over the
// same store: a stored result (the next life's Enqueue resolves the point
// from it), and nothing else — no task ID, worker ID or lease carries over.

import (
	"encoding/json"
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

func openStore(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRecoveryResolvesStoredArtifacts: a point completed in one queue life
// is not run again in the next. The new life's Enqueue finds the result
// artifact in the store and resolves the ticket on the spot.
func TestRecoveryResolvesStoredArtifacts(t *testing.T) {
	st := openStore(t)
	q1 := NewQueue(st, testConfig())
	if _, err := q1.Enqueue(spec(2)); err != nil {
		t.Fatal(err)
	}
	tasks := q1.Lease("w1", 1)
	if len(tasks) != 1 {
		t.Fatal("no task leased")
	}
	if err := q1.Complete("w1", tasks[0].ID, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	q1.Close()

	q2 := NewQueue(st, testConfig())
	defer q2.Close()
	tk, err := q2.Enqueue(spec(2))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("re-enqueued point did not resolve from the store")
	}
	if _, err := tk.Result(); err != nil {
		t.Fatalf("ticket error: %v", err)
	}
	if s := q2.Stats(); s.DedupStore != 1 || s.Enqueued != 0 || s.Pending != 0 {
		t.Errorf("stats = %+v, want one store dedup and no task", s)
	}
}

// TestStaleWorkerIDGetsNoLease: a worker id minted by a previous queue life
// leases nothing from the next one, and its late heartbeat, result and
// failure report make it no member of the new fleet and touch none of the
// new life's tasks.
func TestStaleWorkerIDGetsNoLease(t *testing.T) {
	st := openStore(t)
	q1 := NewQueue(st, testConfig())
	staleID := q1.Register("old-life")
	for region := range 2 {
		if _, err := q1.Enqueue(spec(region)); err != nil {
			t.Fatal(err)
		}
	}
	held := q1.Lease(staleID, 2)
	if len(held) != 2 {
		t.Fatalf("first life leased %d tasks, want 2", len(held))
	}
	q1.Close()

	// The next life's jobs enqueue the same points again.
	q2 := NewQueue(st, testConfig())
	defer q2.Close()
	for region := range 2 {
		if _, err := q2.Enqueue(spec(region)); err != nil {
			t.Fatal(err)
		}
	}
	if tasks := q2.Lease(staleID, 1); len(tasks) != 0 {
		t.Fatalf("restarted queue leased %d tasks to a previous-epoch worker id", len(tasks))
	}
	if dropped := q2.Heartbeat(staleID, []string{held[0].ID, held[1].ID}); len(dropped) != 2 {
		t.Errorf("stale heartbeat dropped %v, want both leases", dropped)
	}
	if err := q2.Complete(staleID, held[0].ID, resultJSON(t)); err != nil {
		t.Fatal(err)
	}
	q2.Fail(staleID, held[1].ID, "late failure")
	if w, live := q2.Workers(), q2.LiveWorkers(); len(w) != 0 || live != 0 {
		t.Errorf("a previous-life id joined the fleet: workers %+v, %d live", w, live)
	}
	if s := q2.Stats(); s.Pending != 2 || s.Completed != 0 || s.Retries != 0 {
		t.Errorf("stats %+v, want both re-enqueued tasks pending and untouched", s)
	}
	// Free-form ids still auto-register and lease (test and ad-hoc
	// clients depend on it).
	if tasks := q2.Lease("adhoc", 1); len(tasks) != 1 {
		t.Fatal("free-form worker id could not lease")
	}
	if q1.Epoch() == q2.Epoch() {
		t.Error("restarted queue kept the same epoch")
	}
}

// TestLateUploadAfterRestartCompletesNothing: a worker finishing a lease
// from the previous queue life uploads under that life's task ID. Had the
// next life reissued the ID, the result would be filed under another
// region's artifact; IDs carry the queue epoch, so the upload matches no
// live task.
func TestLateUploadAfterRestartCompletesNothing(t *testing.T) {
	t.Run("in-memory", func(t *testing.T) {
		st := openStore(t)
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
		if _, err := q2.Enqueue(spec(1)); err != nil {
			t.Fatal(err)
		}
		if err := q2.Complete("w1", tasks[0].ID, resultJSON(t)); err != nil {
			t.Fatal(err)
		}
		if st.HasArtifact(fakeTraceKey, PointArtifact(1, bp.TableIMachine(1), "cold")) {
			t.Error("late upload under a previous life's task ID was stored as region 1's result")
		}
		if s := q2.Stats(); s.Pending != 1 || s.Completed != 0 {
			t.Errorf("stats = %+v, want region 1's task still pending", s)
		}
	})
}
