package farm

// White-box tests of what a queue life leaves to the next one over the
// same store: a stored result (the next life's Enqueue resolves the point
// from it) and no lease. Nothing else is tied to a life: a task ID names
// its point and a worker keeps its id, so a previous life's worker serves
// the next one and its late upload completes the point it names.

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
)

// fakeTraceKey is a well-formed content key for queue-level tests that
// never execute tasks (nothing in Enqueue/Lease/Fail opens the trace).
const fakeTraceKey = "abababababababababababababababababababababababababababababababab"

func testConfig() Config {
	return Config{LeaseTTL: time.Minute, MaxAttempts: 3}
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

// TestWorkerIDOutlivesRestart: the next queue life over the same store gives
// each Spec the task ID the previous life gave it, and a worker id the
// previous life registered leases a re-enqueued point, heartbeats it and is
// one of the new fleet.
func TestWorkerIDOutlivesRestart(t *testing.T) {
	st := openStore(t)
	q1 := NewQueue(st, testConfig())
	id := q1.Register("old-life")
	for region := range 2 {
		if _, err := q1.Enqueue(spec(region)); err != nil {
			t.Fatal(err)
		}
	}
	held := q1.Lease(id, 2)
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
	got := q2.Lease(id, 1)
	if len(got) != 1 || got[0].ID != held[0].ID {
		t.Fatalf("next life leased %+v to the previous life's worker, want task %s", got, held[0].ID)
	}
	if dropped := q2.Heartbeat(id, []string{held[0].ID, held[1].ID}); !slices.Equal(dropped, []string{held[1].ID}) {
		t.Errorf("heartbeat dropped %v, want only the unleased %s", dropped, held[1].ID)
	}
	if w, live := q2.Workers(), q2.LiveWorkers(); len(w) != 1 || w[0].ID != id || w[0].Leased != 1 || live != 1 {
		t.Errorf("fleet %+v (%d live), want %s alone holding one lease", w, live, id)
	}
	if s := q2.Stats(); s.Pending != 1 || s.Leased != 1 {
		t.Errorf("stats %+v, want one task pending and one leased", s)
	}
}

// TestLateUploadAfterRestartCompletesItsPoint: a worker finishing a lease
// from the previous queue life uploads under that life's task ID, which the
// next life gives the same point. The upload completes the re-enqueued
// point: its result is stored as uploaded and its ticket resolves.
func TestLateUploadAfterRestartCompletesItsPoint(t *testing.T) {
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
	tk, err := q2.Enqueue(spec(0))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(bp.RegionResult{Cycles: 12345})
	if err != nil {
		t.Fatal(err)
	}
	if err := q2.Complete("w1", tasks[0].ID, payload); err != nil {
		t.Fatal(err)
	}
	stored, err := st.GetArtifact(fakeTraceKey, PointArtifact(0, bp.TableIMachine(1), "cold"))
	if err != nil || !bytes.Equal(stored, payload) {
		t.Errorf("stored result %s (%v), want the uploaded %s", stored, err, payload)
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("the late upload did not resolve the re-enqueued point")
	}
	if res, err := tk.Result(); err != nil || res.Cycles != 12345 {
		t.Errorf("ticket = %+v, %v; want the uploaded result", res, err)
	}
	if s := q2.Stats(); s.Completed != 1 || s.Pending != 0 || s.Leased != 0 {
		t.Errorf("stats = %+v, want one completion and nothing outstanding", s)
	}
}

// TestLateUploadAfterRestartCompletesNothing: a worker finishing a lease
// from the previous queue life uploads under that life's task ID. When the
// next life never enqueued that point, the upload matches no live task and
// is stored under no other region's artifact.
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
