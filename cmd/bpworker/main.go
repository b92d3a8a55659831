// Command bpworker is a farm worker: it registers with a bpserve server,
// pulls leased point-simulation tasks over the HTTP/JSON farm protocol
// (see internal/farm), fetches any trace it is missing into its own
// content-addressed store, simulates each point, and uploads the results.
// Workers are stateless and interchangeable — start as many as there are
// machines, kill them at will; the server's lease queue requeues whatever
// a lost worker was holding.
//
// Usage:
//
//	bpworker -server http://bpserve:8080 -store /var/cache/bpworker
//	bpworker -server http://bpserve:8080 -concurrency 8 -name rack3-07
//	bpworker -server http://bpserve:8080 -metrics-addr :9101 -pprof
//
// A worker batches up to -concurrency tasks per lease, simulates them in
// parallel, and heartbeats all held leases at a third of the server's
// lease TTL. On SIGINT/SIGTERM it stops leasing, finishes what it holds,
// and exits — nothing is abandoned mid-lease unless the process is
// killed, and even then the server requeues after the TTL.
//
// With -metrics-addr the worker serves GET /metrics (Prometheus text
// format, bpworker_-prefixed series) and GET /debug/spans (recent
// per-task spans as JSON, each carrying the submitting job's trace ID);
// -pprof additionally mounts net/http/pprof under /debug/pprof/ on the
// same listener.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/fault"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bpworker: %v\n", err)
		os.Exit(1)
	}
}

// lockedWriter serializes writes: tasks simulate (and log) on concurrent
// goroutines, and io.Writer implementations are not generally safe for
// concurrent use.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// run is the testable entry point: it serves tasks until ctx is done, the
// -max-tasks budget is spent, or the queue stays empty past -idle-exit.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	stderr = &lockedWriter{w: stderr}
	fs := flag.NewFlagSet("bpworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server      = fs.String("server", "http://127.0.0.1:8080", "bpserve base URL")
		storeDir    = fs.String("store", "bpworker-store", "local content-addressed trace store")
		name        = fs.String("name", "", "worker name shown in /farm/workers (default: hostname)")
		concurrency = fs.Int("concurrency", 0, "tasks simulated in parallel (0 = GOMAXPROCS)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "sleep between empty lease polls")
		maxTasks    = fs.Int("max-tasks", 0, "exit after settling this many tasks (0 = run forever); transient RPC trouble retries instead of burning budget")
		idleExit    = fs.Duration("idle-exit", 0, "exit after the queue stays empty this long (0 = never)")
		replayMB    = fs.Int64("replay-cache-mb", 256, "decoded-region replay cache budget, MiB (0 disables)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics and /debug/spans on this address (empty disables)")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr listener")
		faultSpec   = fs.String("fault", "", "fault-injection spec, e.g. 'rpc.lease:p=0.1;rpc.result:p=0.1' (chaos testing; see internal/fault)")
	)
	lf := obs.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	logger, err := lf.Logger(stderr)
	if err != nil {
		return err
	}
	if *name == "" {
		if h, err := os.Hostname(); err == nil {
			*name = h
		} else {
			*name = "bpworker"
		}
	}
	if *concurrency <= 0 {
		*concurrency = runtime.GOMAXPROCS(0)
	}

	if err := fault.Configure(*faultSpec); err != nil {
		return err
	}
	if *faultSpec != "" {
		logger.Warn("fault injection armed", "spec", *faultSpec)
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	c := &farm.Client{Base: *server}

	var rc *bp.ReplayCache
	if *replayMB > 0 {
		rc = bp.NewReplayCache(*replayMB << 20)
	}
	w := newWorker(c, st, rc, logger)
	c.OnRetry = func(op string, attempt int, err error) {
		w.rpcRetries.Inc()
		logger.Debug("rpc retrying", "op", op, "attempt", attempt, "err", err)
	}

	if *metricsAddr != "" {
		// Fail fast on a bad or taken address rather than silently running
		// without telemetry.
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, w.metricsMux(*pprofOn)) //nolint:errcheck // closed on return
		logger.Info("metrics listening", "addr", ln.Addr().String(), "pprof", *pprofOn)
	}

	// The server may still be starting (CI launches both at once), or may
	// be mid-restart when we need to re-register: retry registration
	// briefly before giving up.
	register := func() error {
		for attempt := 0; ; attempt++ {
			err := c.Register(*name)
			if err == nil {
				return nil
			}
			if attempt >= 20 || ctx.Err() != nil {
				return fmt.Errorf("registering with %s: %w", *server, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(250 * time.Millisecond):
			}
		}
	}
	if err := register(); err != nil {
		return err
	}
	logger.Info("registered as "+c.Worker,
		"worker", c.Worker, "name", *name, "server", *server, "concurrency", *concurrency)

	w.startHeartbeats()
	defer w.stopHeartbeats()

	settled := 0
	idleSince := time.Time{}
	// Lease failures back off exponentially (reset on any success) so a
	// down or flapping coordinator sees a thinning poll rate, not a
	// constant hammer, and the worker never exits on transient trouble.
	leaseDelay := *poll
	maxLeaseDelay := 10 * time.Second
	if *poll > maxLeaseDelay {
		maxLeaseDelay = *poll
	}
	for ctx.Err() == nil {
		want := *concurrency
		if *maxTasks > 0 && *maxTasks-settled < want {
			want = *maxTasks - settled
		}
		tasks, err := c.Lease(want)
		if err != nil {
			if errors.Is(err, farm.ErrServerRestarted) {
				// The coordinator restarted: our worker id and leases are
				// void, but its write-ahead log already requeued whatever
				// we held. Re-register under the new epoch and keep
				// serving instead of exiting mid-fleet. Results of tasks
				// still simulating upload fine — completion is accepted
				// idempotently from any worker id.
				logger.Warn("coordinator restarted, re-registering", "server", *server)
				if rerr := register(); rerr != nil {
					return rerr
				}
				logger.Info("re-registered as "+c.Worker, "worker", c.Worker)
				continue
			}
			// Transient server trouble (including the restart window while
			// the new coordinator comes up): back off and retry rather
			// than dying mid-fleet. Only ctx cancellation ends the loop.
			logger.Warn("lease failed", "backoff", leaseDelay.String(), "err", err)
			select {
			case <-ctx.Done():
			case <-time.After(leaseDelay):
			}
			if leaseDelay *= 2; leaseDelay > maxLeaseDelay {
				leaseDelay = maxLeaseDelay
			}
			continue
		}
		leaseDelay = *poll
		if len(tasks) == 0 {
			if idleSince.IsZero() {
				idleSince = time.Now()
			} else if *idleExit > 0 && time.Since(idleSince) >= *idleExit {
				logger.Info(fmt.Sprintf("idle for %v, exiting", *idleExit))
				return nil
			}
			select {
			case <-ctx.Done():
			case <-time.After(*poll):
			}
			continue
		}
		idleSince = time.Time{}
		// Only settled tasks — an outcome (result or failure report)
		// durably delivered to the server — consume -max-tasks budget.
		// A task whose upload failed even after the client's own retries
		// is left for its lease to lapse and does not count: transient
		// RPC trouble must not drain the budget and stop the worker early.
		settled += w.process(tasks)
		if *maxTasks > 0 && settled >= *maxTasks {
			logger.Info(fmt.Sprintf("settled %d tasks, exiting", settled))
			return nil
		}
	}
	// Signal received after all held tasks finished (process waits for
	// its batch): a clean exit, nothing left leased.
	logger.Info("shutting down")
	return nil
}

// worker holds the shared state of one bpworker process: the protocol
// client, the local trace store, the set of currently-held task ids the
// heartbeat loop renews, and the process telemetry (bpworker_-prefixed
// metrics registry plus a bounded ring of per-task spans).
type worker struct {
	client *farm.Client
	st     *store.Store
	exec   *farm.Executor // compute path: replay cache and prefix pass shared across tasks
	logger *slog.Logger

	reg        *obs.Registry
	spans      *obs.SpanRecorder
	completed  *obs.Counter
	failed     *obs.Counter
	rpcRetries *obs.Counter
	taskDur    *obs.Histogram
	fetchDur   *obs.Histogram

	mu       sync.Mutex
	held     map[string]bool
	hbCancel context.CancelFunc
	hbDone   chan struct{}
}

func newWorker(c *farm.Client, st *store.Store, rc *bp.ReplayCache, logger *slog.Logger) *worker {
	w := &worker{client: c, st: st, exec: farm.NewExecutor(st, rc), logger: logger}
	r := obs.NewRegistry()
	w.reg = r
	w.spans = obs.NewSpanRecorder(0)
	w.completed = r.Counter("bpworker_tasks_completed_total", "Tasks simulated and uploaded successfully.")
	w.failed = r.Counter("bpworker_tasks_failed_total", "Tasks whose fetch or simulation failed (failure reported to the server).")
	w.rpcRetries = r.Counter("bp_rpc_retries_total", "Farm RPC attempts that failed transiently and were retried with backoff.")
	w.taskDur = r.Histogram("bpworker_task_seconds", "End-to-end task latency: trace fetch, simulation, upload.", obs.DefLatencyBuckets)
	w.fetchDur = r.Histogram("bpworker_trace_fetch_seconds", "Trace fetch latency (cache-hit fetches are near-zero).", obs.DefLatencyBuckets)
	r.GaugeFunc("bpworker_replay_cache_bytes", "Decoded-region replay cache resident bytes.", func() float64 {
		return float64(rc.Stats().Bytes)
	})
	r.GaugeFunc("bpworker_replay_cache_entries", "Decoded-region replay cache resident regions.", func() float64 {
		return float64(rc.Stats().Entries)
	})
	r.CounterFunc("bpworker_prefix_pass_resumed_total", "Warm tasks that continued the MRU prefix pass held from the previous task.", func() float64 { return float64(w.exec.PassStats().Resumed) })
	r.CounterFunc("bpworker_prefix_pass_restarted_total", "Warm tasks that began a fresh prefix pass: first use, another trace or machine, or a region behind the held pass.", func() float64 { return float64(w.exec.PassStats().Restarted) })
	r.CounterFunc("bpworker_prefix_pass_regions_total", "Prefix regions actually tracked for warm tasks (a pass per task would track the sum of their region indices).", func() float64 { return float64(w.exec.PassStats().Regions) })
	r.GaugeFunc("bpworker_held_leases", "Task leases currently held (renewed by the heartbeat loop).", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return float64(len(w.held))
	})
	return w
}

// metricsMux is the worker's observability surface: Prometheus metrics,
// recent task spans, and (optionally) pprof.
func (w *worker) metricsMux(withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", w.reg.Handler())
	mux.HandleFunc("/debug/spans", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(w.spans.Spans()) //nolint:errcheck // best-effort debug endpoint
	})
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (w *worker) hold(ids []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.held == nil {
		w.held = make(map[string]bool)
	}
	for _, id := range ids {
		w.held[id] = true
	}
}

func (w *worker) release(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.held, id)
}

func (w *worker) heldIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.held))
	for id := range w.held {
		out = append(out, id)
	}
	return out
}

// startHeartbeats renews every held lease at a third of the TTL so slow
// simulations are never reassigned while the worker is alive. The loop
// deliberately does not watch the signal context: on SIGINT the worker
// finishes the tasks it holds, and their leases must stay renewed until
// that drain completes (stopHeartbeats runs after the main loop exits).
func (w *worker) startHeartbeats() {
	hctx, cancel := context.WithCancel(context.Background())
	w.hbCancel = cancel
	w.hbDone = make(chan struct{})
	interval := w.client.LeaseTTL / 3
	if interval <= 0 {
		interval = 10 * time.Second
	}
	go func() {
		defer close(w.hbDone)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-hctx.Done():
				return
			case <-tick.C:
				ids := w.heldIDs()
				if len(ids) == 0 {
					continue
				}
				dropped, err := w.client.Heartbeat(ids)
				if err != nil {
					w.logger.Warn("heartbeat failed", "err", err)
					continue
				}
				for _, id := range dropped {
					// The server reassigned these (e.g. after a network
					// partition outlasted the TTL); stop renewing. Any
					// result we still upload is accepted idempotently.
					w.release(id)
				}
			}
		}
	}()
}

func (w *worker) stopHeartbeats() {
	if w.hbCancel != nil {
		w.hbCancel()
		<-w.hbDone
	}
}

// process simulates one leased batch in parallel and uploads every
// outcome before returning. It returns how many tasks settled — i.e.
// had an outcome (success or failure) delivered to the server.
func (w *worker) process(tasks []farm.Task) int {
	ids := make([]string, len(tasks))
	for i, t := range tasks {
		ids[i] = t.ID
	}
	w.hold(ids)
	// The serial half of every task runs here, in pass order: fetching (so a
	// fresh worker downloads a batch's trace once, not -concurrency times in
	// parallel) and taking the warm-up snapshot (so a batch of one trace is
	// one advance of the held prefix pass, however goroutines get scheduled).
	// Each simulation starts as soon as its own snapshot is taken.
	slices.SortFunc(tasks, farm.PassOrder)
	var wg sync.WaitGroup
	settled := make([]bool, len(tasks))
	for i, t := range tasks {
		finish := w.runTask(t)
		wg.Add(1)
		go func(i int, t farm.Task) {
			defer wg.Done()
			defer w.release(t.ID)
			done, err := finish()
			settled[i] = done
			if err != nil {
				w.logger.Warn("task failed",
					"task", t.ID, "trace_id", t.TraceID, "trace", t.TraceKey,
					"region", t.Region, "attempt", t.Attempt, "settled", done, "err", err)
			}
		}(i, t)
	}
	wg.Wait()
	n := 0
	for _, ok := range settled {
		if ok {
			n++
		}
	}
	return n
}

// runTask executes one task end to end: ensure the trace is local,
// simulate the point, upload the result. Fetch and simulation errors are
// reported as task failures (consuming one of the task's bounded
// attempts — another worker may succeed). An upload error is NOT a task
// failure: the compute succeeded, so after the client's own retry budget
// is exhausted the worker lets the lease expire and the task be redone,
// rather than burning attempts on server-side trouble.
//
// The returned bool says whether the task settled — its outcome (result
// or failure report) was durably delivered to the server. A task whose
// upload or failure report could not be delivered is unsettled: its
// lease lapses and the server reassigns it.
//
// Each task is recorded as a "farm-task" span carrying the submitting
// job's trace ID (if the coordinator supplied one) with fetch, simulate
// and upload stages — the worker-side half of the job's end-to-end trace.
//
// runTask itself is the task's serial half (fetch, then Executor.Warm, timed
// under simulate); the function it returns is the parallel half.
func (w *worker) runTask(t farm.Task) func() (bool, error) {
	start := time.Now()
	span := obs.NewSpan(t.TraceID, "farm-task")
	span.SetAttr("task", t.ID)
	span.SetAttr("worker", w.client.Worker)
	stop := span.StartStage("fetch")
	err := w.client.FetchTrace(w.st, t.TraceKey)
	stop()
	w.fetchDur.ObserveDuration(time.Since(start))
	var run func() (bp.RegionResult, error)
	if err == nil {
		stop = span.StartStage("simulate")
		run, err = w.exec.Warm(t, span)
		stop()
	}
	return func() (bool, error) {
		defer func() {
			span.Finish()
			w.spans.Record(span.Data())
		}()
		var res bp.RegionResult
		if err == nil {
			stop := span.StartStage("simulate")
			res, err = run()
			stop()
		}
		if err != nil {
			span.SetAttr("error", err.Error())
			w.failed.Inc()
			if ferr := w.client.Fail(t, err.Error()); ferr != nil {
				w.logger.Warn("reporting failure failed", "task", t.ID, "err", ferr)
				return false, err
			}
			return true, err
		}
		stop := span.StartStage("upload")
		uploadErr := w.client.Complete(t, res)
		stop()
		if uploadErr != nil {
			span.SetAttr("error", uploadErr.Error())
			return false, fmt.Errorf("uploading result: %w", uploadErr)
		}
		w.completed.Inc()
		w.taskDur.ObserveDuration(time.Since(start))
		w.logger.Info("task done",
			"task", t.ID, "trace_id", t.TraceID, "trace", t.TraceKey, "region", t.Region,
			"attempt", t.Attempt, "dur", time.Since(start).Round(time.Millisecond).String())
		return true, nil
	}
}
