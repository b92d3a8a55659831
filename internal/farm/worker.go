package farm

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

// Transport is the coordinator as a Worker sees it: the six calls the
// worker loop makes. *Client is the HTTP transport; RunLocalWorker runs the
// same loop over a Queue in the same process.
type Transport interface {
	// Register opens a session as name: the calls after it act as the
	// returned worker id, whose leases last leaseTTL between heartbeats.
	Register(name string) (id string, leaseTTL time.Duration, err error)
	// Lease asks for up to max tasks; none is not an error. ErrClosed ends
	// Run, and any other error is retried with back-off.
	Lease(max int) ([]Task, error)
	// Heartbeat renews the listed leases and returns the ones the coordinator
	// no longer counts as this worker's.
	Heartbeat(ids []string) (dropped []string, err error)
	// Complete uploads the results of t's run, in region order.
	Complete(t Task, res []bp.RegionResult) error
	Fail(t Task, msg string) error
	// FetchTrace makes the trace readable from st; a no-op when it already is.
	FetchTrace(st *store.Store, key string) error
}

// queueTransport is the in-process Transport: the queue's own methods under
// the worker id Register took.
type queueTransport struct {
	q  *Queue
	id string
}

func (l *queueTransport) Register(name string) (string, time.Duration, error) {
	l.id = l.q.Register(name)
	return l.id, l.q.cfg.LeaseTTL, nil
}

func (l *queueTransport) Lease(max int) ([]Task, error) {
	select {
	case <-l.q.stopSweep: // Close closes it
		return nil, ErrClosed
	default:
		return l.q.Lease(l.id, max), nil
	}
}

func (l *queueTransport) Heartbeat(ids []string) ([]string, error) {
	return l.q.Heartbeat(l.id, ids), nil
}

func (l *queueTransport) Complete(t Task, res []bp.RegionResult) error {
	b, err := encodeResults(res)
	if err != nil {
		return err
	}
	return l.q.Complete(l.id, t.ID, b)
}

func (l *queueTransport) Fail(t Task, msg string) error {
	l.q.Fail(l.id, t.ID, msg)
	return nil
}

// FetchTrace has nothing to move: an in-process worker reads the store it was
// given, and a trace missing from it fails the task in Executor.Warm.
func (*queueTransport) FetchTrace(*store.Store, string) error { return nil }

// Worker is the farm's one worker loop: lease a batch, fetch and warm its
// tasks serially in PassOrder, simulate and upload them in parallel, settle,
// repeat — renewing every held lease from a heartbeat goroutine meanwhile.
// It owns the process telemetry too: the bpworker_-prefixed series on
// Metrics and one "farm-task" span per task on the recorder it was given.
// Set the exported fields before Run.
type Worker struct {
	Concurrency int           // tasks leased per batch and simulated in parallel
	Poll        time.Duration // sleep between empty lease polls; first lease back-off
	MaxTasks    int           // Run returns after settling this many tasks (0 = no budget)
	IdleExit    time.Duration // Run returns once the queue stayed empty this long (0 = never)

	// Metrics holds the worker's series; a daemon serves it and may add its own.
	Metrics *obs.Registry

	tr     Transport
	st     *store.Store
	exec   *Executor // compute path: prefix pass kept across tasks
	spans  *obs.SpanRecorder
	logger *slog.Logger

	completed *obs.Counter
	failed    *obs.Counter
	taskDur   *obs.Histogram
	fetchDur  *obs.Histogram

	id string // the worker id Run registered as

	mu   sync.Mutex
	held map[string]bool // leases the heartbeat loop renews
}

// NewWorker returns a worker over tr that reads traces from st, records its
// task spans on spans and logs to logger (nil discards).
func NewWorker(tr Transport, st *store.Store, spans *obs.SpanRecorder, logger *slog.Logger) *Worker {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	r := obs.NewRegistry()
	w := &Worker{Concurrency: 1, Metrics: r, tr: tr, st: st, exec: NewExecutor(st), spans: spans, logger: logger, held: make(map[string]bool)}
	w.completed = r.Counter("bpworker_tasks_completed_total", "Tasks simulated and uploaded successfully.")
	w.failed = r.Counter("bpworker_tasks_failed_total", "Tasks whose fetch or simulation failed (failure reported to the server).")
	w.taskDur = r.Histogram("bpworker_task_seconds", "End-to-end task latency: trace fetch, simulation, upload.", obs.DefLatencyBuckets)
	w.fetchDur = r.Histogram("bpworker_trace_fetch_seconds", "Trace fetch latency (cache-hit fetches are near-zero).", obs.DefLatencyBuckets)
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

// maxRegisterFailures is how many registrations in a row may fail before Run
// gives up: the coordinator may still be starting (CI launches both at once)
// or be mid-restart, but a worker pointed at nothing should not wait forever.
const maxRegisterFailures = 21

// Run is the worker's whole session: it registers as name once and serves
// tasks under that id while heartbeating held leases at a third of the lease
// TTL. A restarted coordinator needs nothing more: it takes the id on the
// worker's first call. Run returns nil once ctx is done, the MaxTasks budget
// is spent or the queue stayed empty past IdleExit, and an error once
// maxRegisterFailures registrations in a row failed or Lease reports
// ErrClosed. The batch in hand is always finished first, with its leases
// renewed to the end.
func (w *Worker) Run(ctx context.Context, name string) error {
	// Failed registrations and leases back off exponentially (reset on any
	// success) so a down or flapping coordinator sees a thinning poll rate,
	// not a constant hammer, and lease trouble never ends the session.
	delay, maxDelay := w.Poll, max(w.Poll, 10*time.Second)
	sleep := func(d time.Duration) {
		select {
		case <-ctx.Done():
		case <-time.After(d):
		}
	}
	backOff := func(what string, err error) {
		w.logger.Warn(what+" failed", "backoff", delay.String(), "err", err)
		sleep(delay)
		delay = min(2*delay, maxDelay)
	}
	var leaseTTL time.Duration
	for failures := 1; ; failures++ {
		if ctx.Err() != nil {
			return nil
		}
		id, ttl, err := w.tr.Register(name)
		if err == nil {
			w.id, leaseTTL = id, ttl
			break
		}
		if failures >= maxRegisterFailures {
			return fmt.Errorf("registering: %w", err)
		}
		backOff("register", err)
	}
	delay = w.Poll
	w.logger.Info("registered as "+w.id, "worker", w.id, "name", name, "concurrency", w.Concurrency)
	defer w.heartbeats(leaseTTL)()

	var (
		settled   int
		idleSince time.Time
	)
	for ctx.Err() == nil {
		want := w.Concurrency
		if w.MaxTasks > 0 {
			want = min(want, w.MaxTasks-settled)
		}
		tasks, err := w.tr.Lease(want)
		if errors.Is(err, ErrClosed) {
			return err
		}
		if err != nil {
			backOff("lease", err)
			continue
		}
		delay = w.Poll
		if len(tasks) == 0 {
			if idleSince.IsZero() {
				idleSince = time.Now()
			} else if w.IdleExit > 0 && time.Since(idleSince) >= w.IdleExit {
				w.logger.Info(fmt.Sprintf("idle for %v, exiting", w.IdleExit))
				return nil
			}
			sleep(w.Poll)
			continue
		}
		idleSince = time.Time{}
		// Only settled tasks — an outcome (result or failure report)
		// durably delivered to the server — consume the MaxTasks budget.
		// A task whose upload failed even after the transport's own retries
		// is left for its lease to lapse and does not count: transient
		// RPC trouble must not drain the budget and stop the worker early.
		settled += w.process(tasks)
		if w.MaxTasks > 0 && settled >= w.MaxTasks {
			w.logger.Info(fmt.Sprintf("settled %d tasks, exiting", settled))
			return nil
		}
	}
	// Signal received after all held tasks finished (process waits for
	// its batch): a clean exit, nothing left leased.
	w.logger.Info("shutting down")
	return nil
}

func (w *Worker) hold(tasks []Task) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, t := range tasks {
		w.held[t.ID] = true
	}
}

func (w *Worker) release(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.held, id)
}

func (w *Worker) heldIDs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.Collect(maps.Keys(w.held))
}

// heartbeats renews every held lease at a third of the TTL so slow
// simulations are never reassigned while the worker is alive, until the
// function it returns is called. The loop deliberately does not watch Run's
// context: a signalled worker finishes the tasks it holds, and their leases
// must stay renewed until that drain completes.
func (w *Worker) heartbeats(leaseTTL time.Duration) (stop func()) {
	interval := leaseTTL / 3
	if interval <= 0 {
		interval = 10 * time.Second
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			ids := w.heldIDs()
			if len(ids) == 0 {
				continue
			}
			dropped, err := w.tr.Heartbeat(ids)
			if err != nil {
				w.logger.Warn("heartbeat failed", "err", err)
				continue
			}
			for _, id := range dropped {
				// The server reassigned or forgot these (a network
				// partition outlasted the TTL, or the coordinator
				// restarted); stop renewing. Any result we still upload
				// is accepted idempotently.
				w.release(id)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// process simulates one leased batch in parallel and uploads every
// outcome before returning. It returns how many tasks settled — i.e.
// had an outcome (success or failure) delivered to the server.
func (w *Worker) process(tasks []Task) int {
	w.hold(tasks)
	// The serial half of every task runs here, in pass order: fetching (so a
	// fresh worker downloads a batch's trace once, not Concurrency times in
	// parallel) and taking the warm-up snapshot (so a batch of one trace is
	// one advance of the held prefix pass, however goroutines get scheduled).
	// Each simulation starts as soon as its own snapshot is taken.
	slices.SortFunc(tasks, PassOrder)
	var wg sync.WaitGroup
	var settled atomic.Int32
	for _, t := range tasks {
		finish := w.runTask(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer w.release(t.ID)
			done, err := finish()
			if done {
				settled.Add(1)
			}
			if err != nil {
				w.logger.Warn("task failed",
					"task", t.ID, "trace_id", t.TraceID, "trace", t.TraceKey,
					"region", t.Region, "attempt", t.Attempt, "settled", done, "err", err)
			}
		}()
	}
	wg.Wait()
	return int(settled.Load())
}

// runTask executes one task end to end: ensure the trace is local,
// simulate the point, upload the result. Fetch and simulation errors are
// reported as task failures (consuming one of the task's bounded
// attempts — another worker may succeed). An upload error is NOT a task
// failure: the compute succeeded, so after the transport's own retry budget
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
func (w *Worker) runTask(t Task) func() (bool, error) {
	start := time.Now()
	span := obs.NewSpan(t.TraceID, "farm-task")
	span.SetAttr("task", t.ID)
	span.SetAttr("worker", w.id)
	stop := span.StartStage("fetch")
	err := w.tr.FetchTrace(w.st, t.TraceKey)
	stop()
	w.fetchDur.ObserveDuration(time.Since(start))
	var run func() ([]bp.RegionResult, error)
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
		var res []bp.RegionResult
		if err == nil {
			stop := span.StartStage("simulate")
			res, err = run()
			stop()
		}
		if err != nil {
			span.SetAttr("error", err.Error())
			w.failed.Inc()
			if ferr := w.tr.Fail(t, err.Error()); ferr != nil {
				w.logger.Warn("reporting failure failed", "task", t.ID, "err", ferr)
				return false, err
			}
			return true, err
		}
		stop := span.StartStage("upload")
		uploadErr := w.tr.Complete(t, res)
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

// RunLocalWorker runs a Worker against q in this process until ctx is done
// or q closes: one task at a time over st (which must hold — or share — the
// traces), recording its spans on q.WorkerSpans(). It powers tests,
// benchmarks and bpcamp -farm-workers.
func RunLocalWorker(ctx context.Context, q *Queue, st *store.Store, name string) {
	w := NewWorker(&queueTransport{q: q}, st, q.workerSpans, nil)
	// Half the queue's sweep interval, so a requeued task is picked up soon.
	w.Poll = min(q.cfg.LeaseTTL/8, 50*time.Millisecond)
	w.Run(ctx, name) //nolint:errcheck // ErrClosed: the queue is gone, which is the other way to stop
}
