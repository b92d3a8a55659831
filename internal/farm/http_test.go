package farm_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/store"
)

// TestHTTPWorkerRoundTrip drives the full worker protocol over real HTTP:
// register, lease, fetch the trace into a separate worker-local store,
// heartbeat, simulate, upload — and checks the ticket resolves with the
// same result a server-local execution produces.
func TestHTTPWorkerRoundTrip(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 5 * time.Second})
	defer q.Close()
	srv := httptest.NewServer(farm.NewServer(q, st))
	defer srv.Close()

	tk, err := q.Enqueue(spec(key))
	if err != nil {
		t.Fatal(err)
	}

	c := &farm.Client{Base: srv.URL}
	id, ttl, err := c.Register("http-test-worker")
	if err != nil {
		t.Fatal(err)
	}
	if id == "" || ttl != 5*time.Second {
		t.Fatalf("registration: worker %q ttl %v", id, ttl)
	}

	tasks, err := c.Lease(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 {
		t.Fatalf("leased %d tasks, want 1", len(tasks))
	}
	task := tasks[0]

	// The worker's own store starts empty; the trace arrives over HTTP
	// and is verified against its content key. A second fetch is a no-op.
	wst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FetchTrace(wst, task.TraceKey); err != nil {
		t.Fatal(err)
	}
	if !wst.HasTrace(key) {
		t.Fatal("trace not in worker store after fetch")
	}
	if err := c.FetchTrace(wst, task.TraceKey); err != nil {
		t.Fatalf("re-fetch: %v", err)
	}

	if dropped, err := c.Heartbeat([]string{task.ID}); err != nil || len(dropped) != 0 {
		t.Fatalf("heartbeat: dropped %v err %v", dropped, err)
	}

	res, err := farm.NewExecutor(wst, 0).Execute(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(task, res); err != nil {
		t.Fatal(err)
	}
	got, err := waitTicket(t, tk)
	if err != nil {
		t.Fatal(err)
	}
	want, err := farm.NewExecutor(st, 0).Execute(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HTTP result %+v != local %+v", got, want)
	}

	// Fleet status reflects the worker and its completion.
	workers := q.Workers()
	if len(workers) != 1 || workers[0].Name != "http-test-worker" || workers[0].Completed != 1 {
		t.Fatalf("workers: %+v", workers)
	}

	// Failure reporting for a task leased later: lease a second region,
	// report an error, and confirm the attempt is logged.
	sp := spec(key)
	sp.Region = 2
	if _, err := q.Enqueue(sp); err != nil {
		t.Fatal(err)
	}
	tasks, err = c.Lease(1)
	if err != nil || len(tasks) != 1 {
		t.Fatalf("second lease: %v (%d tasks)", err, len(tasks))
	}
	if err := c.Fail(tasks[0], "simulated worker error"); err != nil {
		t.Fatal(err)
	}
	if s := q.Stats(); s.Retries != 1 {
		t.Fatalf("fail not logged: %+v", s)
	}

	// Unknown trace fetches are clean errors, not junk stores.
	badKey := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if err := c.FetchTrace(wst, badKey); err == nil {
		t.Fatal("fetch of unknown trace should fail")
	}
}

// TestHTTPBodyLimits is the regression test for silent truncation: an
// oversized result upload is rejected with an explicit 413 (and an error
// message naming the limit), not truncated into a confusing JSON parse
// failure; an oversized response body is an explicit client-side error;
// and payloads under the caps still round-trip.
// TestHTTPLeaseNamesWorkerAfterRestart: a worker keeps its id across a
// coordinator restart, and its first lease gives the restarted queue its
// name, so the fleet listing reads as it did before the restart.
func TestHTTPLeaseNamesWorkerAfterRestart(t *testing.T) {
	st, _ := newTestStore(t)
	q1 := farm.NewQueue(st, farm.Config{})
	srv1 := httptest.NewServer(farm.NewServer(q1, st))
	c := &farm.Client{Base: srv1.URL}
	id, _, err := c.Register("chaos-w1")
	srv1.Close()
	q1.Close()
	if err != nil {
		t.Fatal(err)
	}

	q2 := farm.NewQueue(st, farm.Config{})
	defer q2.Close()
	srv2 := httptest.NewServer(farm.NewServer(q2, st))
	defer srv2.Close()
	c.Base = srv2.URL
	if _, err := c.Lease(1); err != nil {
		t.Fatal(err)
	}
	if ws := q2.Workers(); len(ws) != 1 || ws[0].ID != id || ws[0].Name != "chaos-w1" {
		t.Fatalf("restarted queue lists %+v, want %s named chaos-w1", ws, id)
	}
}

func TestHTTPBodyLimits(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{LeaseTTL: 5 * time.Second})
	defer q.Close()
	fsrv := farm.NewServer(q, st)
	fsrv.MaxBody = 4 << 10
	srv := httptest.NewServer(fsrv)
	defer srv.Close()

	if _, err := q.Enqueue(spec(key)); err != nil {
		t.Fatal(err)
	}
	c := &farm.Client{Base: srv.URL}
	id, _, err := c.Register("limit-test-worker")
	if err != nil {
		t.Fatal(err)
	}
	tasks, err := c.Lease(1)
	if err != nil || len(tasks) != 1 {
		t.Fatalf("lease: %v (%d tasks)", err, len(tasks))
	}
	task := tasks[0]

	// A result blown up past the body cap must be rejected explicitly.
	res := bp.RegionResult{}
	res.Counters.Instrs = 1
	padded := struct {
		Worker  string          `json:"worker"`
		Task    string          `json:"task"`
		Result  json.RawMessage `json:"result"`
		Padding string          `json:"padding"`
	}{Worker: id, Task: task.ID, Padding: strings.Repeat("x", 8<<10)}
	if padded.Result, err = json.Marshal(res); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(padded)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(srv.URL+"/farm/result", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized result upload = HTTP %d, want 413\nbody: %s", hr.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "4096 byte body limit") {
		t.Errorf("413 body does not name the limit: %s", raw)
	}
	// The task must still be leased (the attempt was not burned).
	if s := q.Stats(); s.Leased != 1 || s.Retries != 0 {
		t.Fatalf("queue stats after rejected upload: %+v", s)
	}

	// A tiny client-side response cap turns a large lease response into an
	// explicit error instead of a truncated parse.
	tiny := &farm.Client{Base: srv.URL}
	if _, _, err := tiny.Register("tiny-cap-worker"); err != nil {
		t.Fatal(err)
	}
	tiny.MaxResponse = 8
	if _, err := tiny.Lease(1); err == nil || !strings.Contains(err.Error(), "exceeds the 8 byte limit") {
		t.Fatalf("tiny-cap lease error = %v, want explicit response-limit error", err)
	}

	// Under the caps, the normal flow still works.
	wst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FetchTrace(wst, task.TraceKey); err != nil {
		t.Fatal(err)
	}
	out, err := farm.NewExecutor(wst, 0).Execute(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(task, out); err != nil {
		t.Fatal(err)
	}
}
