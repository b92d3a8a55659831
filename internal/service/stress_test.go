package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
)

// TestSubmitShutdownRace is the manager's concurrency stress test, meant
// to run under -race (CI does): many goroutines submitting identical and
// distinct requests race a Shutdown. The invariants:
//
//   - no deadlock: Shutdown returns without the context expiring, which
//     also proves the worker pool drained (no leaked workers — Shutdown
//     blocks on wg.Wait);
//   - no double-run of deduped work: the profiler runs at most once per
//     distinct analysis config, no matter how many identical requests
//     were in flight (single-flight + store cache);
//   - every accepted job reaches a terminal state, and submissions after
//     the race fail with ErrClosed.
func TestSubmitShutdownRace(t *testing.T) {
	st, key := newTestStore(t)

	// Count real profiling runs per signature label.
	var mu sync.Mutex
	analyzeCalls := map[string]int{}
	orig := analyzeFn
	defer func() { analyzeFn = orig }()
	analyzeFn = func(st *store.Store, key string, f *tracefile.File, cfg bp.Config, obsrv bp.StageObserver) (*bp.Analysis, ProfileStats, error) {
		mu.Lock()
		analyzeCalls[cfg.Signature.Label()]++
		mu.Unlock()
		return orig(st, key, f, cfg, obsrv)
	}

	m := New(st, 4, 256)
	// Identical requests ("" and "combine" normalize to the same config)
	// interleave with distinct ones across signatures, kinds and warmup
	// modes.
	reqs := []Request{
		{Kind: KindAnalyze, Trace: key},
		{Kind: KindAnalyze, Trace: key, Signature: "combine"},
		{Kind: KindAnalyze, Trace: key, Signature: "bbv"},
		{Kind: KindAnalyze, Trace: key, Signature: "reuse_dist"},
		{Kind: KindEstimate, Trace: key, Warmup: "cold"},
		{Kind: KindEstimate, Trace: key, Warmup: "mru"},
		{Kind: KindSimulate, Trace: key},
	}

	const goroutines, perG = 12, 10
	var (
		wg       sync.WaitGroup
		accepted sync.Map
		rejected atomic.Int64
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				snap, err := m.Submit(reqs[(g+i)%len(reqs)])
				if err != nil {
					if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBusy) {
						t.Errorf("Submit: unexpected error %v", err)
					}
					rejected.Add(1)
					continue
				}
				accepted.Store(snap.ID, struct{}{})
			}
		}(g)
	}

	// Let some submissions land, then shut down while others still race.
	time.Sleep(2 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- m.Shutdown(ctx) }()
	wg.Wait()
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(150 * time.Second):
		t.Fatal("Shutdown never returned: deadlock")
	}

	// Every accepted job drained to a terminal state.
	nAccepted := 0
	accepted.Range(func(id, _ any) bool {
		nAccepted++
		snap, ok := m.Get(id.(string))
		if !ok {
			t.Errorf("accepted job %s vanished", id)
		} else if !snap.Terminal() {
			t.Errorf("job %s left in state %s after Shutdown", id, snap.Status)
		} else if snap.Status == StatusFailed {
			t.Errorf("job %s failed: %s", id, snap.Error)
		}
		return true
	})
	if nAccepted == 0 {
		t.Fatal("shutdown won every race — no job was ever accepted; stress proved nothing")
	}
	t.Logf("accepted %d jobs, rejected %d (closed/busy)", nAccepted, rejected.Load())

	// Deduped work ran once: at most one profiling pass per distinct
	// analysis config (estimates share the analyze stage via
	// AnalyzeCached, so they add no extra runs).
	mu.Lock()
	defer mu.Unlock()
	for label, n := range analyzeCalls {
		if n > 1 {
			t.Errorf("config %q profiled %d times — deduped job double-ran", label, n)
		}
	}

	// The manager is closed for good; no worker is left to pick anything
	// up.
	if _, err := m.Submit(Request{Kind: KindAnalyze, Trace: key}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrClosed", err)
	}
}

// TestSubmitShutdownRaceRepeated reruns the race a few times with tiny
// worker pools and queue depths, the geometry where lost wakeups and
// send-on-closed bugs hide.
func TestSubmitShutdownRaceRepeated(t *testing.T) {
	st, key := newTestStore(t)
	for round := 0; round < 5; round++ {
		m := New(st, 1, 2)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := m.Submit(Request{Kind: KindAnalyze, Trace: key})
				if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, ErrBusy) {
					t.Errorf("Submit: %v", err)
				}
			}()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := m.Shutdown(ctx); err != nil {
			t.Fatalf("round %d: Shutdown: %v", round, err)
		}
		cancel()
		wg.Wait()
	}
}
