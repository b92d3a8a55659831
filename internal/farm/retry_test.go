package farm_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"barrierpoint/internal/farm"
	"barrierpoint/internal/fault"
)

// fastRetry keeps the retry loop hot enough for unit tests.
var fastRetry = farm.RetryPolicy{Attempts: 4, Base: time.Millisecond, Max: 5 * time.Millisecond}

// TestClientRetriesTransientServerErrors fronts a real farm server with
// a proxy that 503s the first two requests: the client must absorb them
// with backoff and succeed on the third attempt.
func TestClientRetriesTransientServerErrors(t *testing.T) {
	st, _ := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	defer q.Close()
	inner := farm.NewServer(q, st)

	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "flaky proxy", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	var retries atomic.Int64
	c := &farm.Client{Base: srv.URL, Retry: fastRetry}
	c.OnRetry = func(op string, attempt int, err error) {
		if op != "register" {
			t.Errorf("retried op %q, want register", op)
		}
		retries.Add(1)
	}
	if _, _, err := c.Register("retry-test"); err != nil {
		t.Fatalf("register through flaky proxy: %v", err)
	}
	if got := retries.Load(); got != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", got)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
}

// TestClientDoesNotRetryClientErrors: a 4xx is a protocol disagreement,
// not transient trouble — exactly one request, no retries.
func TestClientDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "no such endpoint", http.StatusNotFound)
	}))
	defer srv.Close()

	c := &farm.Client{Base: srv.URL, Retry: fastRetry}
	c.OnRetry = func(op string, attempt int, err error) {
		t.Errorf("retried a 4xx (op %s attempt %d: %v)", op, attempt, err)
	}
	if _, _, err := c.Register("no-retry-test"); err == nil {
		t.Fatal("404 register reported success")
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// TestClientRetriesExhaust: when every attempt fails the final transport
// error surfaces after exactly Attempts tries.
func TestClientRetriesExhaust(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down hard", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c := &farm.Client{Base: srv.URL, Retry: fastRetry}
	_, _, err := c.Register("exhaust-test")
	if err == nil {
		t.Fatal("register against a dead server reported success")
	}
	if got := hits.Load(); got != int64(fastRetry.Attempts) {
		t.Fatalf("server saw %d requests, want %d", got, fastRetry.Attempts)
	}
}

// TestClientAbsorbsInjectedRPCFaults drives the fault seam the chaos
// smoke uses: deterministic injected failures on the lease site are
// retried away without the server ever noticing.
func TestClientAbsorbsInjectedRPCFaults(t *testing.T) {
	defer fault.Reset()
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	defer q.Close()
	srv := httptest.NewServer(farm.NewServer(q, st))
	defer srv.Close()

	if _, err := q.Enqueue(spec(key)); err != nil {
		t.Fatal(err)
	}

	c := &farm.Client{Base: srv.URL, Retry: fastRetry}
	if _, _, err := c.Register("fault-test"); err != nil {
		t.Fatal(err)
	}
	if err := fault.Configure("seed=11;rpc.lease:n=2"); err != nil {
		t.Fatal(err)
	}
	var retries atomic.Int64
	c.OnRetry = func(op string, attempt int, err error) {
		if !errors.Is(err, fault.ErrInjected) {
			t.Errorf("unexpected retry cause: %v", err)
		}
		retries.Add(1)
	}
	tasks, err := c.Lease(4)
	if err != nil {
		t.Fatalf("lease with 2 injected faults: %v", err)
	}
	if len(tasks) != 1 {
		t.Fatalf("leased %d tasks, want 1", len(tasks))
	}
	if got := retries.Load(); got != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", got)
	}
}

// TestClientPerAttemptTimeout: a hung server trips the per-attempt
// deadline (not a global hang), and the timeout is itself retryable.
func TestClientPerAttemptTimeout(t *testing.T) {
	var hits atomic.Int64
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	// LIFO: release the parked handlers first, then Close can reap them.
	defer srv.Close()
	defer close(release)

	c := &farm.Client{
		Base:    srv.URL,
		Timeout: 20 * time.Millisecond,
		Retry:   farm.RetryPolicy{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond},
	}
	start := time.Now()
	if _, _, err := c.Register("timeout-test"); err == nil {
		t.Fatal("register against a hung server reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hung for %v despite per-attempt timeout", elapsed)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
}
