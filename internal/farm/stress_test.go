package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
)

// TestWALQueueStress is the durable queue's concurrency stress test,
// meant to run under -race (CI does): enqueuers, leasing/completing/
// failing workers and a heartbeater hammer a WAL-backed queue with an
// aggressive sweeper while Close races them all. The invariants:
//
//   - no data race and no deadlock (every goroutine returns);
//   - every WAL append happens under q.mu, so journal and memory never
//     diverge even while Close swaps the log out from under the ops;
//   - after the dust settles the journal replays into a queue whose live
//     tasks are consistent (no duplicates, no lost completions).
func TestWALQueueStress(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "store", "farm.wal")
	cfg := Config{
		LeaseTTL:    10 * time.Millisecond, // leases expire mid-test
		SweepEvery:  2 * time.Millisecond,  // sweeper constantly requeues
		MaxAttempts: 2,
	}
	q, _, err := NewDurableQueue(st, cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}

	result, err := json.Marshal(bp.RegionResult{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		enqueuers = 4
		workers   = 4
		regions   = 64
	)
	var (
		wg       sync.WaitGroup
		enqueued atomic.Int64
		leasedN  atomic.Int64
		closing  atomic.Bool
	)
	for g := 0; g < enqueuers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; ; r++ {
				sp := Spec{TraceKey: fakeTraceKey, Region: (g*regions + r) % regions, Sockets: 1, Warmup: "cold"}
				if _, err := q.Enqueue(sp); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("Enqueue: %v", err)
					return
				}
				enqueued.Add(1)
			}
		}(g)
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("stress-%d", g)
			for {
				tasks := q.Lease(id, 3)
				if len(tasks) == 0 {
					if closing.Load() {
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				leasedN.Add(int64(len(tasks)))
				for i, task := range tasks {
					var err error
					switch {
					case i%3 == 0:
						err = q.Fail(id, task.ID, "stress-injected failure")
					default:
						err = q.Complete(id, task.ID, result)
					}
					// After Close (or lease expiry) the task is gone; both are
					// fine — the point is no race, no wedge, no bogus error.
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("worker %s: %v", id, err)
						return
					}
				}
			}
		}(g)
	}
	// A heartbeater renews whatever it sees, keeping the lease table warm
	// while the sweeper tries to expire it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !closing.Load() {
			for g := 0; g < workers; g++ {
				q.Heartbeat(fmt.Sprintf("stress-%d", g), nil)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Let real contention build up (progress-gated, not wall-clock: under
	// -race the same milliseconds buy far fewer operations), then Close
	// while all of it is still in flight.
	for start := time.Now(); leasedN.Load() < 50 || enqueued.Load() < 200; {
		if time.Since(start) > 30*time.Second {
			t.Fatalf("no stress progress: %d enqueued, %d leased", enqueued.Load(), leasedN.Load())
		}
		time.Sleep(time.Millisecond)
	}
	q.Close()
	closing.Store(true)
	wg.Wait()

	if enqueued.Load() == 0 || leasedN.Load() == 0 {
		t.Fatalf("stress proved nothing: %d enqueued, %d leased, stats %+v", enqueued.Load(), leasedN.Load(), q.Stats())
	}
	t.Logf("enqueued %d, leased %d, stats %+v", enqueued.Load(), leasedN.Load(), q.Stats())

	// The journal left behind must replay cleanly into a consistent queue:
	// no duplicate dedup keys, every live task intact.
	q2, rec, err := NewDurableQueue(st, cfg, walPath)
	if err != nil {
		t.Fatalf("journal after stress does not recover: %v", err)
	}
	defer q2.Close()
	q2.mu.Lock()
	seen := make(map[string]bool)
	for id, tk := range q2.tasks {
		if tk.ID != id || tk.TraceKey == "" || tk.Artifact == "" {
			t.Errorf("recovered task %s is malformed: %+v", id, tk.Task)
		}
		if seen[tk.dedup] {
			t.Errorf("two recovered tasks share dedup key %s", tk.dedup)
		}
		seen[tk.dedup] = true
	}
	q2.mu.Unlock()
	t.Logf("post-stress recovery: %+v", rec)
}

// TestWALQueueStressRepeated reruns a compressed version of the race a
// few times, recovering from the same journal each round — the geometry
// where append-vs-close and recover-vs-sweep windows hide.
func TestWALQueueStressRepeated(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "store", "farm.wal")
	cfg := Config{LeaseTTL: 5 * time.Millisecond, SweepEvery: time.Millisecond, MaxAttempts: 1}
	result, err := json.Marshal(bp.RegionResult{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		q, _, err := NewDurableQueue(st, cfg, walPath)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id := fmt.Sprintf("r%d", g)
				for i := 0; i < 20; i++ {
					sp := Spec{TraceKey: fakeTraceKey, Region: 1000*round + g*20 + i, Sockets: 1, Warmup: "cold"}
					if _, err := q.Enqueue(sp); errors.Is(err, ErrClosed) {
						return
					}
					for _, task := range q.Lease(id, 1) {
						err := q.Complete(id, task.ID, result)
						if err != nil && !errors.Is(err, ErrClosed) {
							t.Errorf("round %d: %v", round, err)
						}
					}
				}
			}(g)
		}
		q.Close() // immediately races everything above
		wg.Wait()
	}
	// One final recovery proves five rounds of torn-down queues left a
	// replayable journal.
	q, rec, err := NewDurableQueue(st, cfg, walPath)
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	t.Logf("final recovery after 5 rounds: %+v", rec)
}
