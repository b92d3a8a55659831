package farm

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

// Errors surfaced by the queue.
var (
	// ErrClosed reports that the queue was shut down while a task was
	// still outstanding; its waiters fail promptly instead of hanging
	// until lease TTLs expire.
	ErrClosed = errors.New("farm: queue closed")
	// ErrBadResult reports a Complete payload that does not parse as a
	// RegionResult — a client bug, as opposed to a server-side store
	// failure.
	ErrBadResult = errors.New("farm: bad result payload")
)

// Spec describes one simulation task to enqueue: simulate the run of Len
// consecutive regions from region Region (see bp.Runs; a Len of 0 or 1 is
// one point) of the stored trace TraceKey on the Table I machine with
// Sockets sockets under the Warmup mode (a bp.ParseWarmup label).
type Spec struct {
	TraceKey string
	Region   int
	Len      int
	Sockets  int
	Warmup   string
	// TraceID is the telemetry trace ID of the job enqueueing this task
	// (see internal/obs); it rides on the task so worker-side spans link
	// back to the coordinator job. Telemetry only — it plays no part in
	// deduplication, so a task shared across jobs keeps the first
	// enqueuer's trace ID.
	TraceID string
}

// Task is the wire form of a leased task handed to a worker.
type Task struct {
	// ID names the run by its head's point: its trace key, "|" and the
	// head's point artifact (see PointArtifact), then "|" and the run's
	// length if it is longer than one; the same in every queue life over
	// one store.
	ID       string `json:"id"`
	TraceKey string `json:"trace"`
	Region   int    `json:"region"`        // the run's head
	Len      int    `json:"len,omitempty"` // the run's regions; 0 is 1
	Sockets  int    `json:"sockets"`
	Warmup   string `json:"warmup"`
	// Attempt is 1 for the first lease, incremented per retry.
	Attempt int `json:"attempt"`
	// TraceID links the task to the coordinator job that enqueued it
	// (empty for tasks from un-instrumented enqueuers). Telemetry only.
	TraceID string `json:"trace_id,omitempty"`
}

// task is the queue's internal task state.
type task struct {
	Task
	artifacts []string // the store artifacts the run's results are filed under
	leased    bool
	worker    string
	expires   time.Time
	created   time.Time // enqueue time, for task-latency telemetry
	failures  []string
	ticket    *Ticket
}

// Ticket is a handle on an enqueued task's eventual result. Tasks
// deduplicated onto the same underlying work share one ticket.
type Ticket struct {
	// Region is the task's head region index, for assembling result maps.
	Region int

	done chan struct{}
	res  []bp.RegionResult
	err  error
}

// Done is closed when the result (or a permanent failure) is available.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Result returns the simulated results of the task's run, in region order
// from Region; it must only be called after Done is closed.
func (t *Ticket) Result() ([]bp.RegionResult, error) { return t.res, t.err }

// WorkerInfo is a point-in-time view of one registered worker.
type WorkerInfo struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	LastSeen  time.Time `json:"last_seen"`
	Leased    int       `json:"leased"`
	Completed int64     `json:"completed"`
	Failed    int64     `json:"failed"`
}

// Stats counts queue activity since construction (the bp_farm_* series).
type Stats struct {
	Enqueued      int64
	DedupStore    int64
	DedupInflight int64
	Completed     int64
	Failed        int64
	Expired       int64
	Retries       int64
	RequeuedClose int64
	Pending       int
	Leased        int
	LiveWorkers   int
}

// Config tunes a Queue.
type Config struct {
	// LeaseTTL is how long a lease lasts without a heartbeat (30s if 0).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease handouts per task before it fails
	// permanently (3 if 0).
	MaxAttempts int
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	return c
}

// Queue is a lease-based work queue of point-simulation tasks over one
// content-addressed store. All methods are safe for concurrent use. Tasks
// live in memory and do not survive a server restart, but their results
// do: completed work lands in the store, so a restarted server's
// re-enqueued points resolve from it and only the points that never
// finished run again (see the package documentation's Durability section).
type Queue struct {
	st  *store.Store
	cfg Config

	mu      sync.Mutex
	tasks   map[string]*task // live (queued or leased) tasks by id
	pending []*task          // FIFO of queued tasks
	workers map[string]*WorkerInfo
	closed  bool

	stats     Stats
	stopSweep chan struct{}
	sweepDone chan struct{}

	// logger, when set, gives task-attempt failures structured log lines;
	// taskDur, when set (see Instrument), observes enqueue-to-complete
	// latency; workerSpans retains the spans recorded by this queue's
	// in-process workers (RunLocalWorker), queryable by trace ID.
	logger      *slog.Logger
	taskDur     *obs.Histogram
	workerSpans *obs.SpanRecorder
}

// NewQueue creates a queue over st and starts its expired-lease sweeper.
func NewQueue(st *store.Store, cfg Config) *Queue {
	q := &Queue{
		st:          st,
		cfg:         cfg.withDefaults(),
		tasks:       make(map[string]*task),
		workers:     make(map[string]*WorkerInfo),
		stopSweep:   make(chan struct{}),
		sweepDone:   make(chan struct{}),
		workerSpans: obs.NewSpanRecorder(),
	}
	go q.sweep()
	return q
}

// NewDurableQueue returns NewQueue(st, cfg): it opens and creates no file,
// and its path argument is ignored. It exists only because bench/probes.go's
// farm.queue_roundtrip_us probe calls it, until that probe moves onto
// NewQueue (ROADMAP item 3(c)).
func NewDurableQueue(st *store.Store, cfg Config, _ string) (*Queue, struct{}, error) {
	return NewQueue(st, cfg), struct{}{}, nil
}

// SetLogger directs structured task-failure logging (lease expiries,
// worker-reported failures, permanent exhaustion) to l. Call before the
// queue is shared; nil disables.
func (q *Queue) SetLogger(l *slog.Logger) { q.logger = l }

// WorkerSpans returns the recorder holding spans from this queue's
// in-process workers (RunLocalWorker) — the coordinator-side view of
// farmed task execution, queryable by job trace ID.
func (q *Queue) WorkerSpans() *obs.SpanRecorder { return q.workerSpans }

// Instrument registers the queue's activity as metric families on reg
// (bp_farm_*) and begins observing per-task latencies. Call it once per
// queue, before the registry serves scrapes.
func (q *Queue) Instrument(reg *obs.Registry) {
	stat := func(f func(s Stats) float64) func() float64 {
		return func() float64 { return f(q.Stats()) }
	}
	reg.CounterFunc("bp_farm_tasks_enqueued_total", "Tasks enqueued (post-dedup).",
		stat(func(s Stats) float64 { return float64(s.Enqueued) }))
	reg.CounterFunc("bp_farm_dedup_store_total", "Enqueues resolved from the store's point-result cache.",
		stat(func(s Stats) float64 { return float64(s.DedupStore) }))
	reg.CounterFunc("bp_farm_dedup_inflight_total", "Enqueues coalesced onto an identical live task.",
		stat(func(s Stats) float64 { return float64(s.DedupInflight) }))
	reg.CounterFunc("bp_farm_tasks_completed_total", "Tasks completed with a stored result.",
		stat(func(s Stats) float64 { return float64(s.Completed) }))
	reg.CounterFunc("bp_farm_tasks_failed_total", "Tasks failed permanently (attempts exhausted).",
		stat(func(s Stats) float64 { return float64(s.Failed) }))
	reg.CounterFunc("bp_farm_leases_expired_total", "Leases expired without heartbeat.",
		stat(func(s Stats) float64 { return float64(s.Expired) }))
	reg.CounterFunc("bp_farm_task_retries_total", "Failed attempts requeued for retry.",
		stat(func(s Stats) float64 { return float64(s.Retries) }))
	reg.GaugeFunc("bp_farm_tasks_pending", "Tasks queued and unleased.",
		stat(func(s Stats) float64 { return float64(s.Pending) }))
	reg.GaugeFunc("bp_farm_tasks_leased", "Tasks currently out on workers.",
		stat(func(s Stats) float64 { return float64(s.Leased) }))
	reg.GaugeFunc("bp_farm_live_workers", "Workers seen within three lease TTLs.",
		stat(func(s Stats) float64 { return float64(s.LiveWorkers) }))
	q.taskDur = reg.Histogram("bp_farm_task_seconds",
		"Farm task latency from enqueue to stored result.", obs.DefLatencyBuckets)
}

// LeaseTTL returns the queue's lease duration.
func (q *Queue) LeaseTTL() time.Duration { return q.cfg.LeaseTTL }

func (q *Queue) sweep() {
	defer close(q.sweepDone)
	tick := time.NewTicker(q.cfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-q.stopSweep:
			return
		case <-tick.C:
			q.mu.Lock()
			q.requeueExpiredLocked(time.Now())
			q.mu.Unlock()
		}
	}
}

// requeueExpiredLocked returns expired leases to the pending queue (or
// fails tasks out of attempts); q.mu must be held.
func (q *Queue) requeueExpiredLocked(now time.Time) {
	for _, t := range q.tasks {
		if !t.leased || now.Before(t.expires) {
			continue
		}
		q.stats.Expired++
		q.endAttemptLocked(t, fmt.Sprintf("attempt %d: lease expired on worker %s", t.Attempt, t.worker))
	}
}

// endAttemptLocked records a failed attempt and either requeues the task
// or fails it permanently; q.mu must be held.
func (q *Queue) endAttemptLocked(t *task, msg string) {
	permanent := t.Attempt >= q.cfg.MaxAttempts
	if q.logger != nil {
		q.logger.Warn("farm task attempt failed",
			"task", t.ID,
			"trace_id", t.TraceID,
			"worker", t.worker,
			"attempt", t.Attempt,
			"max_attempts", q.cfg.MaxAttempts,
			"trace", t.TraceKey,
			"region", t.Region,
			"err", msg,
			"permanent", permanent)
	}
	t.failures = append(t.failures, msg)
	t.leased = false
	t.worker = ""
	if permanent {
		q.finishLocked(t, nil, fmt.Errorf(
			"farm: task %s (trace %.12s region %d) failed after %d attempts: %s",
			t.ID, t.TraceKey, t.Region, t.Attempt, strings.Join(t.failures, "; ")))
		q.stats.Failed++
		return
	}
	q.stats.Retries++
	q.pending = append(q.pending, t)
}

// finishLocked resolves a live task's ticket and forgets the task;
// q.mu must be held.
func (q *Queue) finishLocked(t *task, res []bp.RegionResult, err error) {
	delete(q.tasks, t.ID)
	// The task may still sit in pending (failed via Fail while queued, or
	// closed); lazily skipped on lease because q.tasks no longer holds it.
	t.ticket.res = res
	t.ticket.err = err
	close(t.ticket.done)
}

// Enqueue places a task on the queue, deduplicating against the store
// (cached results for every region of the run resolve the ticket
// immediately) and against identical live tasks (the existing ticket is
// shared). The task's ID is its run's name, so every queue life over the
// store gives a Spec the same one.
func (q *Queue) Enqueue(sp Spec) (*Ticket, error) {
	mc := bp.TableIMachine(sp.Sockets)
	if _, err := bp.ParseWarmup(sp.Warmup); err != nil {
		return nil, err
	}
	sp.Len = max(sp.Len, 1)
	artifacts := make([]string, sp.Len)
	for i := range artifacts {
		artifacts[i] = PointArtifact(sp.Region, sp.Region+i, mc, sp.Warmup)
	}
	id := sp.TraceKey + "|" + artifacts[0]
	if sp.Len > 1 {
		id += fmt.Sprintf("|%d", sp.Len)
	}

	// Store dedup outside the lock: reads are cheap and idempotent.
	res := make([]bp.RegionResult, sp.Len)
	ok := true
	for i := 0; ok && i < sp.Len; i++ {
		var err error
		if res[i], ok, err = loadPoint(q.st, sp.TraceKey, artifacts[i]); err != nil {
			return nil, err
		}
	}
	if ok {
		q.mu.Lock()
		q.stats.DedupStore++
		q.mu.Unlock()
		tk := &Ticket{Region: sp.Region, done: make(chan struct{}), res: res}
		close(tk.done)
		return tk, nil
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if t, ok := q.tasks[id]; ok {
		q.stats.DedupInflight++
		return t.ticket, nil
	}
	t := &task{
		Task: Task{
			ID:       id,
			TraceKey: sp.TraceKey,
			Region:   sp.Region,
			Sockets:  sp.Sockets,
			Warmup:   sp.Warmup,
			TraceID:  sp.TraceID,
		},
		artifacts: artifacts,
		created:   time.Now(),
		ticket:    &Ticket{Region: sp.Region, done: make(chan struct{})},
	}
	if sp.Len > 1 {
		t.Len = sp.Len
	}
	q.tasks[id] = t
	q.pending = append(q.pending, t)
	q.stats.Enqueued++
	return t.ticket, nil
}

// Register adds a worker under a fresh random id and returns it.
// Registration is advisory — any call with an id the queue does not know
// adds that id to the fleet, so a worker keeps the id it registered with
// across a coordinator restart — but gives the worker a name in
// /farm/workers.
func (q *Queue) Register(name string) string {
	id := "w-" + rand.Text()[:12]
	q.mu.Lock()
	defer q.mu.Unlock()
	q.workers[id] = &WorkerInfo{ID: id, Name: name, LastSeen: time.Now()}
	return id
}

// touchWorkerLocked marks id seen at now, adding it to the fleet if new.
func (q *Queue) touchWorkerLocked(id string, now time.Time) *WorkerInfo {
	w, ok := q.workers[id]
	if !ok {
		w = &WorkerInfo{ID: id, Name: id}
		q.workers[id] = w
	}
	w.LastSeen = now
	return w
}

// Lease hands the worker up to max queued tasks, each leased for
// LeaseTTL. An empty slice means no work is available right now.
func (q *Queue) Lease(workerID string, max int) []Task { return q.lease(workerID, "", max) }

// lease is Lease for a worker that names itself (a lease over HTTP): a
// queue that did not register workerID, restarted under a running worker,
// lists it under its name, not its id.
func (q *Queue) lease(workerID, name string, max int) []Task {
	if max <= 0 {
		max = 1
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	if w := q.touchWorkerLocked(workerID, now); name != "" {
		w.Name = name
	}
	q.requeueExpiredLocked(now)
	var out []Task
	for len(out) < max && len(q.pending) > 0 {
		t := q.pending[0]
		q.pending = q.pending[1:]
		if q.tasks[t.ID] != t || t.leased {
			continue // finished or re-leased since it entered pending
		}
		t.leased = true
		t.worker = workerID
		t.expires = now.Add(q.cfg.LeaseTTL)
		t.Attempt++
		out = append(out, t.Task)
	}
	return out
}

// Heartbeat renews the worker's leases on the listed tasks. Tasks the
// queue no longer recognizes as leased to this worker come back in
// dropped: the worker should abandon them.
func (q *Queue) Heartbeat(workerID string, ids []string) (dropped []string) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.touchWorkerLocked(workerID, now)
	for _, id := range ids {
		t, ok := q.tasks[id]
		if !ok || !t.leased || t.worker != workerID {
			dropped = append(dropped, id)
			continue
		}
		t.expires = now.Add(q.cfg.LeaseTTL)
	}
	return dropped
}

// Complete uploads a task's result: its run's results as encodeResults
// writes them. Uploads are idempotent and accepted from any worker —
// simulation is deterministic, so a late result from an expired lease, or
// from a lease of a previous queue life, is identical to the one that will
// be (or was) accepted. Every member's result is stored as a point artifact
// before waiters wake, so future runs dedup against it.
func (q *Queue) Complete(workerID, id string, resultJSON []byte) error {
	res, err := decodeResults(resultJSON)
	if err != nil {
		return fmt.Errorf("task %s: %w: %v", id, ErrBadResult, err)
	}
	q.mu.Lock()
	w := q.touchWorkerLocked(workerID, time.Now())
	t, live := q.tasks[id]
	q.mu.Unlock()
	if !live {
		// Already completed (duplicate upload) or never known. Both are
		// acknowledged: the caller did valid work either way, and
		// distinguishing them would require unbounded task history.
		return nil
	}
	if len(res) != len(t.artifacts) {
		return fmt.Errorf("task %s: %w: %d results for a run of %d", id, ErrBadResult, len(res), len(t.artifacts))
	}
	// Store before resolving so a waiter that re-enqueues immediately
	// sees the artifacts.
	batch := make(map[string][]byte, len(res))
	for i, r := range res {
		if batch[t.artifacts[i]], err = json.Marshal(r); err != nil {
			return err
		}
	}
	if err := q.st.PutArtifacts(t.TraceKey, batch); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if cur, ok := q.tasks[id]; !ok || cur != t {
		return nil // raced with another completion
	}
	// The stored artifact is the completion's durable record: after a
	// restart, Enqueue finds it and resolves the point without re-running.
	q.stats.Completed++
	w.Completed++
	q.taskDur.ObserveDuration(time.Since(t.created))
	q.finishLocked(t, res, nil)
	return nil
}

// Fail reports that the worker could not complete the task. The failure
// is logged on the task, which is retried unless out of attempts.
func (q *Queue) Fail(workerID, id, msg string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.touchWorkerLocked(workerID, time.Now())
	t, ok := q.tasks[id]
	if !ok {
		return // completed elsewhere, or duplicate failure report
	}
	if !t.leased || t.worker != workerID {
		// Not this worker's current lease: either it expired and was
		// already requeued (the expiry logged the attempt), or the task
		// was reassigned. The current lease's outcome governs.
		return
	}
	w.Failed++
	q.endAttemptLocked(t, fmt.Sprintf("attempt %d on worker %s: %s", t.Attempt, workerID, msg))
}

// LiveWorkers counts workers seen within three lease TTLs — the signal
// the service layer uses to fall back to local execution when the fleet
// is empty.
func (q *Queue) LiveWorkers() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.liveWorkersLocked(time.Now())
}

func (q *Queue) liveWorkersLocked(now time.Time) int {
	live := 0
	window := 3 * q.cfg.LeaseTTL
	for _, w := range q.workers {
		if now.Sub(w.LastSeen) <= window {
			live++
		}
	}
	return live
}

// Workers lists registered workers, most recently seen first.
func (q *Queue) Workers() []WorkerInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]WorkerInfo, 0, len(q.workers))
	for _, w := range q.workers {
		info := *w
		for _, t := range q.tasks {
			if t.leased && t.worker == info.ID {
				info.Leased++
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].LastSeen.Equal(out[j].LastSeen) {
			return out[i].LastSeen.After(out[j].LastSeen)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Stats returns activity counters and current queue depths.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	for _, t := range q.tasks {
		if t.leased {
			s.Leased++
		} else {
			s.Pending++
		}
	}
	s.LiveWorkers = q.liveWorkersLocked(time.Now())
	return s
}

// Close shuts the queue down: leased tasks are requeued (counted in
// Stats.RequeuedClose), every outstanding ticket fails promptly with
// ErrClosed, and the sweeper stops. Close is idempotent. Completed
// results remain in the store, so re-running the same jobs after a
// restart redoes only the points that never finished.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.sweepDone
		return
	}
	q.closed = true
	for _, t := range q.tasks {
		if t.leased {
			q.stats.RequeuedClose++
			t.leased = false
			t.worker = ""
		}
		q.finishLocked(t, nil, ErrClosed)
	}
	q.pending = nil
	close(q.stopSweep)
	q.mu.Unlock()
	<-q.sweepDone
}

// WaitAll blocks until every ticket resolves or ctx is done, assembling
// the per-region result map the reconstruction stage consumes.
func WaitAll(ctx context.Context, tickets []*Ticket) (map[int]bp.RegionResult, error) {
	out := make(map[int]bp.RegionResult, len(tickets))
	for _, tk := range tickets {
		select {
		case <-tk.Done():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		res, err := tk.Result()
		if err != nil {
			return nil, err
		}
		for i, r := range res {
			out[tk.Region+i] = r
		}
	}
	return out, nil
}
