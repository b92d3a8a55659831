package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/fault"
	"barrierpoint/internal/store"
)

// DefaultMaxBody caps farm request bodies (result uploads are the big
// ones: a RegionResult per simulated barrierpoint of a run).
const DefaultMaxBody = 64 << 20

// Server exposes a Queue over the HTTP/JSON protocol described in the
// package documentation. It registers its routes with absolute /farm/
// paths, so cmd/bpserve mounts it directly on its own mux.
type Server struct {
	q   *Queue
	st  *store.Store
	mux *http.ServeMux
	// MaxBody caps request bodies, DefaultMaxBody if 0. Oversized requests
	// are rejected with 413 — explicitly, never by silent truncation.
	MaxBody int64
}

// NewServer wraps the queue and its store in an http.Handler.
func NewServer(q *Queue, st *store.Store) *Server {
	s := &Server{q: q, st: st, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /farm/register", s.handleRegister)
	s.mux.HandleFunc("POST /farm/lease", s.handleLease)
	s.mux.HandleFunc("POST /farm/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /farm/result", s.handleResult)
	s.mux.HandleFunc("GET /farm/workers", s.handleWorkers)
	s.mux.HandleFunc("GET /farm/trace/{key}", s.handleTrace)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) error(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	limit := s.MaxBody
	if limit <= 0 {
		limit = DefaultMaxBody
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.error(w, http.StatusRequestEntityTooLarge, "request exceeds the %d byte body limit", tooBig.Limit)
			return false
		}
		s.error(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

type registerRequest struct {
	Name string `json:"name"`
}

type registerResponse struct {
	Worker  string `json:"worker"`
	LeaseMs int64  `json:"lease_ms"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Name == "" {
		req.Name = "anonymous"
	}
	s.writeJSON(w, http.StatusOK, registerResponse{
		Worker:  s.q.Register(req.Name),
		LeaseMs: s.q.LeaseTTL().Milliseconds(),
	})
}

type leaseRequest struct {
	Worker string `json:"worker"`
	Name   string `json:"name"`
	Max    int    `json:"max"`
}

type leaseResponse struct {
	Tasks []Task `json:"tasks"`
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		s.error(w, http.StatusBadRequest, "missing worker id")
		return
	}
	tasks := s.q.lease(req.Worker, req.Name, req.Max)
	if tasks == nil {
		tasks = []Task{}
	}
	s.writeJSON(w, http.StatusOK, leaseResponse{Tasks: tasks})
}

type heartbeatRequest struct {
	Worker string   `json:"worker"`
	Tasks  []string `json:"tasks"`
}

type heartbeatResponse struct {
	Dropped []string `json:"dropped"`
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Worker == "" {
		s.error(w, http.StatusBadRequest, "missing worker id")
		return
	}
	dropped := s.q.Heartbeat(req.Worker, req.Tasks)
	if dropped == nil {
		dropped = []string{}
	}
	s.writeJSON(w, http.StatusOK, heartbeatResponse{Dropped: dropped})
}

type resultRequest struct {
	Worker string          `json:"worker"`
	Task   string          `json:"task"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Worker == "" || req.Task == "" {
		s.error(w, http.StatusBadRequest, "missing worker or task id")
		return
	}
	if req.Error != "" {
		s.q.Fail(req.Worker, req.Task, req.Error)
		s.writeJSON(w, http.StatusOK, map[string]string{"status": "failed"})
		return
	}
	if len(req.Result) == 0 {
		s.error(w, http.StatusBadRequest, "result payload or error required")
		return
	}
	if err := s.q.Complete(req.Worker, req.Task, req.Result); err != nil {
		// A malformed payload is the client's fault; anything else (e.g.
		// a store write failure) is the server's, and the worker should
		// retry the upload rather than burn a task attempt.
		code := http.StatusInternalServerError
		if errors.Is(err, ErrBadResult) {
			code = http.StatusBadRequest
		}
		s.error(w, code, "%v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	workers := s.q.Workers()
	if workers == nil {
		workers = []WorkerInfo{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"workers": workers})
}

// handleTrace serves the raw bytes of a stored trace so workers can pull
// content they are missing; the content address doubles as an integrity
// check on the worker side.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	p, err := s.st.TracePath(key)
	if err != nil {
		s.error(w, http.StatusNotFound, "trace %s not found", key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, p)
}

// Client is a worker-side handle on a farm server: the HTTP Transport.
// Register opens the session the remaining calls act in; each call maps
// one-to-one onto the protocol.
//
// Every RPC runs under a per-attempt deadline (Timeout) and — because
// the whole protocol is idempotent (registration mints a fresh id,
// leases renew, completions dedup by task) — transparently retries
// transport errors and 5xx server trouble with capped, jittered
// exponential backoff (Retry). 4xx responses are the caller's bug and
// never retry. Each attempt consults the fault-injection site
// "rpc.<op>" (see internal/fault), which is how the chaos smokes make
// the network flaky.
type Client struct {
	// Base is the server URL, e.g. "http://127.0.0.1:8080".
	Base string
	// MaxResponse caps a response body read, DefaultMaxResponse if 0. A
	// larger response is an explicit error, never a silently truncated
	// (and then misparsed) payload.
	MaxResponse int64
	// Timeout bounds each RPC attempt, DefaultRPCTimeout if 0; negative
	// disables the deadline.
	Timeout time.Duration
	// Retry is the backoff policy for failed attempts; zero fields take
	// the DefaultRetry values. Retry.Attempts of 1 disables retries.
	Retry RetryPolicy
	// OnRetry, when set, observes every re-attempt (telemetry: the
	// worker's bp_rpc_retries_total counter); op is the protocol
	// operation ("register", "lease", "heartbeat", "result", "fetch"),
	// attempt the 1-based number of the attempt that just failed.
	OnRetry func(op string, attempt int, err error)

	worker, name string // the id Register was given, and the name it was given for
}

// RetryPolicy shapes the client's capped jittered exponential backoff.
type RetryPolicy struct {
	// Attempts is the total tries per RPC (first call included).
	Attempts int
	// Base is the backoff before the second attempt; each further wait
	// doubles, capped at Max, and is jittered to [d/2, d).
	Base time.Duration
	Max  time.Duration
}

// Default retry/timeout parameters: four attempts spanning ~1s of
// backoff rides out a coordinator restart or dropped connection without
// stalling a worker for long on a genuinely dead server.
const (
	DefaultRPCTimeout    = 30 * time.Second
	DefaultRetryAttempts = 4
	DefaultRetryBase     = 100 * time.Millisecond
	DefaultRetryMax      = 5 * time.Second
)

// DefaultRetry is the retry policy used where Client.Retry is zero.
var DefaultRetry = RetryPolicy{Attempts: DefaultRetryAttempts, Base: DefaultRetryBase, Max: DefaultRetryMax}

func (c *Client) retryPolicy() RetryPolicy {
	p := c.Retry
	if p.Attempts <= 0 {
		p.Attempts = DefaultRetry.Attempts
	}
	if p.Base <= 0 {
		p.Base = DefaultRetry.Base
	}
	if p.Max <= 0 {
		p.Max = DefaultRetry.Max
	}
	return p
}

// backoff returns the jittered wait before attempt+1 (attempt is
// 1-based): base·2^(attempt-1) capped at max, jittered to [d/2, d).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.Base << (attempt - 1)
	if d <= 0 || d > p.Max {
		d = p.Max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// statusError carries an HTTP status so the retry loop can tell server
// trouble (5xx, worth retrying) from caller bugs (4xx, not).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// retryable reports whether another attempt could help: transport
// errors and 5xx responses retry, anything the server answered
// deliberately with a 4xx does not.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true
}

// call runs one idempotent RPC under the retry policy: per-attempt
// fault injection, deadline, and jittered backoff between attempts.
func (c *Client) call(op string, fn func(ctx context.Context) error) error {
	pol := c.retryPolicy()
	var err error
	for attempt := 1; ; attempt++ {
		err = func() error {
			if ferr := fault.Inject("rpc." + op); ferr != nil {
				return ferr
			}
			ctx := context.Background()
			if t := c.Timeout; t >= 0 {
				if t == 0 {
					t = DefaultRPCTimeout
				}
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, t)
				defer cancel()
			}
			return fn(ctx)
		}()
		if err == nil || !retryable(err) || attempt >= pol.Attempts {
			return err
		}
		if c.OnRetry != nil {
			c.OnRetry(op, attempt, err)
		}
		time.Sleep(pol.backoff(attempt))
	}
}

// DefaultMaxResponse caps farm response bodies read by the client (lease
// responses carrying a batch of tasks are the big ones).
const DefaultMaxResponse = 16 << 20

// post sends a JSON request and decodes a JSON response under the
// retry policy, mapping non-2xx statuses onto errors carrying the
// server's error payload.
func (c *Client) post(op, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return c.call(op, func(ctx context.Context) error {
		return c.doPost(ctx, path, body, resp)
	})
}

// doPost is one POST attempt: marshal-free (the body is pre-encoded so
// every retry sends identical bytes), bounded read, status mapping.
func (c *Client) doPost(ctx context.Context, path string, body []byte, resp any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hr, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	limit := c.MaxResponse
	if limit <= 0 {
		limit = DefaultMaxResponse
	}
	// Read one byte past the cap: exactly-limit responses pass, anything
	// larger fails loudly instead of being truncated into a JSON error.
	b, err := io.ReadAll(io.LimitReader(hr.Body, limit+1))
	if err != nil {
		return err
	}
	if int64(len(b)) > limit {
		return fmt.Errorf("farm: %s: response exceeds the %d byte limit", path, limit)
	}
	if hr.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(b, &e) == nil && e.Error != "" {
			return &statusError{hr.StatusCode, fmt.Sprintf("farm: %s: %s", path, e.Error)}
		}
		return &statusError{hr.StatusCode, fmt.Sprintf("farm: %s: HTTP %d", path, hr.StatusCode)}
	}
	if resp == nil {
		return nil
	}
	return json.Unmarshal(b, resp)
}

// Register obtains a worker identity from the server, which every later
// call of this Client uses, and the server's lease duration. Leases also
// carry name, so a restarted server lists the worker under it.
func (c *Client) Register(name string) (id string, leaseTTL time.Duration, err error) {
	var resp registerResponse
	if err := c.post("register", "/farm/register", registerRequest{Name: name}, &resp); err != nil {
		return "", 0, err
	}
	c.worker, c.name = resp.Worker, name
	return resp.Worker, time.Duration(resp.LeaseMs) * time.Millisecond, nil
}

// Lease asks for up to max tasks.
func (c *Client) Lease(max int) ([]Task, error) {
	var resp leaseResponse
	if err := c.post("lease", "/farm/lease", leaseRequest{Worker: c.worker, Name: c.name, Max: max}, &resp); err != nil {
		return nil, err
	}
	return resp.Tasks, nil
}

// Heartbeat renews the leases on the listed tasks, returning the ids the
// server no longer recognizes as this worker's (abandon those).
func (c *Client) Heartbeat(ids []string) (dropped []string, err error) {
	var resp heartbeatResponse
	if err := c.post("heartbeat", "/farm/heartbeat", heartbeatRequest{Worker: c.worker, Tasks: ids}, &resp); err != nil {
		return nil, err
	}
	return resp.Dropped, nil
}

// Complete uploads the simulation results of a task's run.
func (c *Client) Complete(t Task, res []bp.RegionResult) error {
	b, err := encodeResults(res)
	if err != nil {
		return err
	}
	return c.post("result", "/farm/result", resultRequest{Worker: c.worker, Task: t.ID, Result: b}, nil)
}

// Fail reports a task failure with a message for the task's failure log.
func (c *Client) Fail(t Task, msg string) error {
	if msg == "" {
		msg = "unknown error"
	}
	return c.post("result", "/farm/result", resultRequest{Worker: c.worker, Task: t.ID, Error: msg}, nil)
}

// FetchTrace downloads the trace with the given content key into the
// worker's local store, verifying that the received bytes hash to the
// requested key. Fetching a trace already present is a no-op. A failed
// or corrupt transfer retries under the client's policy — the store's
// content addressing makes the fetch idempotent.
func (c *Client) FetchTrace(st *store.Store, key string) error {
	if st.HasTrace(key) {
		return nil
	}
	return c.call("fetch", func(ctx context.Context) error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/farm/trace/"+key, nil)
		if err != nil {
			return err
		}
		hr, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return err
		}
		defer hr.Body.Close()
		if hr.StatusCode != http.StatusOK {
			return &statusError{hr.StatusCode, fmt.Sprintf("farm: fetching trace %.12s: HTTP %d", key, hr.StatusCode)}
		}
		got, existed, err := st.PutTrace(hr.Body)
		if err != nil {
			return err
		}
		if got != key {
			// Drop only what this transfer added: a trace the worker already
			// held keeps its bytes and every artifact derived from it.
			if !existed {
				st.RemoveTrace(got)
			}
			return fmt.Errorf("farm: trace %.12s: server sent content %.12s (corrupt transfer?)", key, got)
		}
		return nil
	})
}
