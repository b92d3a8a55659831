package farm

import (
	"context"
	"crypto/rand"
	"encoding/hex"
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
	// ErrServerRestarted reports that the server answering a client's
	// request carries a different queue epoch than the one the client
	// registered with: the coordinator restarted, old worker ids and
	// leases are void, and the client should re-register.
	ErrServerRestarted = errors.New("farm: server restarted (queue epoch changed)")
)

// Spec describes one point-simulation task to enqueue: simulate region
// Region of the stored trace TraceKey on the Table I machine with Sockets
// sockets under the Warmup mode (a bp.ParseWarmup label).
type Spec struct {
	TraceKey string
	Region   int
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
	ID       string `json:"id"`
	TraceKey string `json:"trace"`
	Region   int    `json:"region"`
	Sockets  int    `json:"sockets"`
	Warmup   string `json:"warmup"`
	// Artifact is the store artifact name the result will be filed under;
	// informational for workers, authoritative for the server.
	Artifact string `json:"artifact"`
	// Attempt is 1 for the first lease, incremented per retry.
	Attempt int `json:"attempt"`
	// TraceID links the task to the coordinator job that enqueued it
	// (empty for tasks from un-instrumented enqueuers or pre-telemetry
	// WAL journals). Telemetry only.
	TraceID string `json:"trace_id,omitempty"`
}

// task is the queue's internal task state.
type task struct {
	Task
	dedup    string
	leased   bool
	worker   string
	expires  time.Time
	created  time.Time // enqueue (or recovery) time, for task-latency telemetry
	failures []string
	ticket   *Ticket
	// seq orders a journal replay's tasks for deterministic requeueing:
	// assigned when a task (re-)enters the pending queue, or when a lease
	// record is replayed (so in-flight tasks requeue in lease order after the
	// pending ones). The running queue does not read it.
	seq int
}

// Ticket is a handle on an enqueued task's eventual result. Tasks
// deduplicated onto the same underlying work share one ticket.
type Ticket struct {
	// Region is the task's region index, for assembling result maps.
	Region int

	done chan struct{}
	res  bp.RegionResult
	err  error
}

// Done is closed when the result (or a permanent failure) is available.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Result returns the simulated region result; it must only be called
// after Done is closed.
func (t *Ticket) Result() (bp.RegionResult, error) { return t.res, t.err }

// WorkerInfo is a point-in-time view of one registered worker.
type WorkerInfo struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	LastSeen  time.Time `json:"last_seen"`
	Leased    int       `json:"leased"`
	Completed int64     `json:"completed"`
	Failed    int64     `json:"failed"`
}

// Stats counts queue activity since construction.
type Stats struct {
	Enqueued      int64 `json:"tasks_enqueued"`
	DedupStore    int64 `json:"dedup_store_hits"`
	DedupInflight int64 `json:"dedup_inflight_hits"`
	Completed     int64 `json:"tasks_completed"`
	Failed        int64 `json:"tasks_failed"`
	Expired       int64 `json:"leases_expired"`
	Retries       int64 `json:"task_retries"`
	RequeuedClose int64 `json:"requeued_on_close"`
	Pending       int   `json:"tasks_pending"`
	Leased        int   `json:"tasks_leased"`
	LiveWorkers   int   `json:"live_workers"`
	// Write-ahead-log activity; all zero for in-memory queues.
	WALAppends     int64 `json:"wal_appends"`
	WALErrors      int64 `json:"wal_errors"`
	WALCompactions int64 `json:"wal_compactions"`
	WALBytes       int64 `json:"wal_bytes"`
}

// Config tunes a Queue.
type Config struct {
	// LeaseTTL is how long a lease lasts without a heartbeat (30s if 0).
	LeaseTTL time.Duration
	// MaxAttempts bounds lease handouts per task before it fails
	// permanently (3 if 0).
	MaxAttempts int
	// SweepEvery is the expired-lease scan interval (LeaseTTL/4 if 0).
	SweepEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.LeaseTTL / 4
	}
	return c
}

// Queue is a lease-based work queue of point-simulation tasks over one
// content-addressed store. All methods are safe for concurrent use.
// NewQueue builds an in-memory queue: tasks do not survive a server
// restart, but their results do — completed work lands in the store, so a
// restarted server re-enqueues only the points that never finished.
// NewDurableQueue additionally journals every transition to a write-ahead
// log and rebuilds pending and in-flight tasks from it on startup (see
// wal.go and the package documentation's Durability section).
type Queue struct {
	st  *store.Store
	cfg Config

	// epoch identifies this queue instance: a random tag embedded in
	// worker ids and echoed in protocol responses, so clients detect a
	// coordinator restart (their epoch no longer matches) and re-register
	// instead of carrying void leases. Immutable after construction.
	epoch string

	mu      sync.Mutex
	tasks   map[string]*task // live (queued or leased) tasks by id
	pending []*task          // FIFO of queued tasks
	byDedup map[string]*task // dedup key → live task
	workers map[string]*WorkerInfo
	seq     int
	wseq    int
	closed  bool

	// wal, when non-nil, journals every task transition before it is
	// applied (a nil journal records nothing) and recovery holds what its
	// replay rebuilt. crashHook is a test seam invoked between a WAL
	// append and its in-memory apply — returning an error simulates a
	// crash exactly on that edge.
	wal       *store.Journal[walRecord]
	recovery  Recovery
	crashHook func(op string) error

	stats     Stats
	stopSweep chan struct{}
	sweepDone chan struct{}

	// replay is the decoded-region cache shared by every in-process worker
	// of this queue (see RunLocalWorker).
	replay *bp.ReplayCache

	// logger, when set, gives task-attempt failures structured log lines;
	// taskDur, when set (see Instrument), observes enqueue-to-complete
	// latency; workerSpans retains the spans recorded by this queue's
	// in-process workers (RunLocalWorker), queryable by trace ID.
	logger      *slog.Logger
	taskDur     *obs.Histogram
	workerSpans *obs.SpanRecorder
}

// NewQueue creates an in-memory queue over st and starts its
// expired-lease sweeper. For a queue that survives restarts, use
// NewDurableQueue.
func NewQueue(st *store.Store, cfg Config) *Queue {
	q := newQueue(st, cfg)
	go q.sweep()
	return q
}

// newQueue builds the queue without starting the sweeper, so
// NewDurableQueue can replay its journal into it first.
func newQueue(st *store.Store, cfg Config) *Queue {
	return &Queue{
		st:          st,
		cfg:         cfg.withDefaults(),
		epoch:       newEpoch(),
		tasks:       make(map[string]*task),
		byDedup:     make(map[string]*task),
		workers:     make(map[string]*WorkerInfo),
		stopSweep:   make(chan struct{}),
		sweepDone:   make(chan struct{}),
		replay:      bp.NewReplayCache(0),
		workerSpans: obs.NewSpanRecorder(0),
	}
}

// SetLogger directs structured task-failure logging (lease expiries,
// worker-reported failures, permanent exhaustion) to l. Call before the
// queue is shared; nil disables.
func (q *Queue) SetLogger(l *slog.Logger) { q.logger = l }

// JournalStats returns the write-ahead log's size and activity counters
// for health surfaces (zero-valued, not durable, for in-memory queues).
func (q *Queue) JournalStats() store.JournalStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wal.Stats()
}

// WorkerSpans returns the recorder holding spans from this queue's
// in-process workers (RunLocalWorker) — the coordinator-side view of
// farmed task execution, queryable by job trace ID.
func (q *Queue) WorkerSpans() *obs.SpanRecorder { return q.workerSpans }

// Instrument registers the queue's activity as metric families on reg
// (bp_farm_* and bp_wal_*) and begins observing per-task and per-WAL-op
// latencies. Call it once per queue, before the registry serves scrapes.
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
	reg.CounterFunc("bp_wal_appends_total", "Write-ahead-log records appended.",
		stat(func(s Stats) float64 { return float64(s.WALAppends) }))
	reg.CounterFunc("bp_wal_errors_total", "Write-ahead-log append/compaction errors.",
		stat(func(s Stats) float64 { return float64(s.WALErrors) }))
	reg.CounterFunc("bp_wal_compactions_total", "Write-ahead-log compactions.",
		stat(func(s Stats) float64 { return float64(s.WALCompactions) }))
	reg.GaugeFunc("bp_wal_bytes", "Write-ahead-log size in bytes of intact frames.",
		stat(func(s Stats) float64 { return float64(s.WALBytes) }))
	q.taskDur = reg.Histogram("bp_farm_task_seconds",
		"Farm task latency from enqueue to stored result.", obs.DefLatencyBuckets)
	if q.wal != nil {
		walDur := reg.HistogramVec("bp_wal_op_seconds",
			"Write-ahead-log operation latency.", "op", obs.DefLatencyBuckets)
		q.wal.SetObserver(func(op string, d time.Duration) {
			walDur.With(op).ObserveDuration(d)
		})
	}
}

// newEpoch draws a random instance tag for worker ids and restart
// detection.
func newEpoch() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000" // degraded but functional: restart detection off
	}
	return hex.EncodeToString(b[:])
}

// Epoch identifies this queue instance; it changes on every restart.
func (q *Queue) Epoch() string { return q.epoch }

// LeaseTTL returns the queue's lease duration.
func (q *Queue) LeaseTTL() time.Duration { return q.cfg.LeaseTTL }

func (q *Queue) sweep() {
	defer close(q.sweepDone)
	tick := time.NewTicker(q.cfg.SweepEvery)
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
		msg := fmt.Sprintf("attempt %d: lease expired on worker %s", t.Attempt, t.worker)
		// A journal error leaves the task leased-and-expired; the next
		// sweep retries the transition.
		_ = q.endAttemptLocked(t, msg)
	}
}

// endAttemptLocked records a failed attempt and either requeues the task
// or fails it permanently; q.mu must be held. The runtime — not replay —
// owns the requeue-vs-fail decision, so the journal records which one was
// taken; if the journal append fails the task is left untouched (still
// leased) and the error returned, and the expiry sweeper retries the
// transition on its next pass.
func (q *Queue) endAttemptLocked(t *task, msg string) error {
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
	op := opRequeue
	if permanent {
		op = opFail
	}
	if err := q.appendWALLocked(walRecord{Op: op, ID: t.ID, Msg: msg}); err != nil {
		return err
	}
	t.failures = append(t.failures, msg)
	t.leased = false
	t.worker = ""
	if permanent {
		q.finishLocked(t, bp.RegionResult{}, fmt.Errorf(
			"farm: task %s (trace %.12s region %d) failed after %d attempts: %s",
			t.ID, t.TraceKey, t.Region, t.Attempt, strings.Join(t.failures, "; ")))
		q.stats.Failed++
		return nil
	}
	q.stats.Retries++
	q.pending = append(q.pending, t)
	return nil
}

// finishLocked resolves a live task's ticket and forgets the task;
// q.mu must be held.
func (q *Queue) finishLocked(t *task, res bp.RegionResult, err error) {
	delete(q.tasks, t.ID)
	delete(q.byDedup, t.dedup)
	// The task may still sit in pending (failed via Fail while queued, or
	// closed); lazily skipped on lease because q.tasks no longer holds it.
	t.ticket.res = res
	t.ticket.err = err
	close(t.ticket.done)
}

// Enqueue places a task on the queue, deduplicating against the store
// (a cached point result resolves the ticket immediately) and against
// identical live tasks (the existing ticket is shared).
func (q *Queue) Enqueue(sp Spec) (*Ticket, error) {
	mc := bp.TableIMachine(sp.Sockets)
	if _, err := bp.ParseWarmup(sp.Warmup); err != nil {
		return nil, err
	}
	artifact := PointArtifact(sp.Region, mc, sp.Warmup)
	dedup := sp.TraceKey + "|" + artifact

	// Store dedup outside the lock: reads are cheap and idempotent.
	if res, ok, err := loadPoint(q.st, sp.TraceKey, artifact); err != nil {
		return nil, err
	} else if ok {
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
	if t, ok := q.byDedup[dedup]; ok {
		q.stats.DedupInflight++
		return t.ticket, nil
	}
	q.seq++
	t := &task{
		Task: Task{
			ID:       fmt.Sprintf("task-%06d", q.seq),
			TraceKey: sp.TraceKey,
			Region:   sp.Region,
			Sockets:  sp.Sockets,
			Warmup:   sp.Warmup,
			Artifact: artifact,
			TraceID:  sp.TraceID,
		},
		dedup:   dedup,
		created: time.Now(),
		ticket:  &Ticket{Region: sp.Region, done: make(chan struct{})},
	}
	// Journal before acknowledging: a crash after this append recovers
	// the task; an append error rejects the enqueue without applying it.
	if err := q.appendWALLocked(walRecord{Op: opEnqueue, Task: &t.Task}); err != nil {
		return nil, err
	}
	q.tasks[t.ID] = t
	q.byDedup[dedup] = t
	q.pending = append(q.pending, t)
	q.stats.Enqueued++
	return t.ticket, nil
}

// Register adds a worker and returns its id. Registration is advisory —
// leasing with an unknown id auto-registers — but gives the worker a
// stable, named identity in /farm/workers.
func (q *Queue) Register(name string) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.wseq++
	// The epoch in the id keeps ids from a previous coordinator life from
	// colliding with this one's (wseq restarts at 1 after a recovery).
	id := fmt.Sprintf("w-%s-%04d", q.epoch, q.wseq)
	q.workers[id] = &WorkerInfo{ID: id, Name: name, LastSeen: time.Now()}
	return id
}

// staleWorkerLocked reports whether id is an epoch-tagged worker id
// minted by a different queue instance. Free-form ids (anything not
// matching "w-<8 hex>-…") are never stale — leasing with an unknown id
// auto-registers, which tests and ad-hoc clients rely on.
func (q *Queue) staleWorkerLocked(id string) bool {
	const tagLen = len("w-") + 8
	if len(id) < tagLen+1 || id[:2] != "w-" || id[tagLen] != '-' {
		return false
	}
	epoch := id[2:tagLen]
	for i := 0; i < len(epoch); i++ {
		c := epoch[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return epoch != q.epoch
}

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
func (q *Queue) Lease(workerID string, max int) []Task {
	if max <= 0 {
		max = 1
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	if q.staleWorkerLocked(workerID) {
		// An epoch-tagged id from a previous coordinator life: hand it
		// nothing (its client is about to see the epoch change and
		// re-register) rather than leasing work to an identity that is
		// about to be abandoned.
		return nil
	}
	q.touchWorkerLocked(workerID, now)
	q.requeueExpiredLocked(now)
	var out []Task
	for len(out) < max && len(q.pending) > 0 {
		t := q.pending[0]
		q.pending = q.pending[1:]
		if q.tasks[t.ID] != t || t.leased {
			continue // finished or re-leased since it entered pending
		}
		// Journal the lease (with its attempt number, so a compacted log
		// replays to the same count) before handing the task out. On an
		// append error the task goes back to the front of the queue and no
		// more work is handed out this call; if the record did land before
		// the error, recovery sees an in-flight lease and requeues it —
		// both sides converge on "not leased".
		if err := q.appendWALLocked(walRecord{Op: opLease, ID: t.ID, Worker: workerID, Attempt: t.Attempt + 1}); err != nil {
			q.pending = append([]*task{t}, q.pending...)
			break
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
func (q *Queue) Heartbeat(workerID string, ids []string) (renewed, dropped []string) {
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
		renewed = append(renewed, id)
	}
	return renewed, dropped
}

// Complete uploads a task's result. Uploads are idempotent and accepted
// from any worker — simulation is deterministic, so a late result from an
// expired lease is identical to the one that will be (or was) accepted.
// The result is stored as a point artifact before waiters wake, so future
// runs dedup against it.
func (q *Queue) Complete(workerID, id string, resultJSON []byte) error {
	var res bp.RegionResult
	if err := json.Unmarshal(resultJSON, &res); err != nil {
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
	// Store before resolving so a waiter that re-enqueues immediately
	// sees the artifact.
	if err := q.st.PutArtifact(t.TraceKey, t.Artifact, resultJSON); err != nil {
		return err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if cur, ok := q.tasks[id]; !ok || cur != t {
		return nil // raced with another completion
	}
	// The artifact is already durable in the store; the journal's complete
	// record makes the queue agree. If this append fails the worker gets
	// an error and retries the idempotent upload — and even a crash right
	// here recovers cleanly, because replay re-checks the store for the
	// artifact and resolves the task without re-running it.
	if err := q.appendWALLocked(walRecord{Op: opComplete, ID: id}); err != nil {
		return err
	}
	q.stats.Completed++
	w.Completed++
	if !t.created.IsZero() {
		q.taskDur.ObserveDuration(time.Since(t.created))
	}
	q.finishLocked(t, res, nil)
	return nil
}

// Fail reports that the worker could not complete the task. The failure
// is logged on the task, which is retried unless out of attempts.
func (q *Queue) Fail(workerID, id, msg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.touchWorkerLocked(workerID, time.Now())
	t, ok := q.tasks[id]
	if !ok {
		return nil // completed elsewhere, or duplicate failure report
	}
	if !t.leased || t.worker != workerID {
		// Not this worker's current lease: either it expired and was
		// already requeued (the expiry logged the attempt), or the task
		// was reassigned. The current lease's outcome governs.
		return nil
	}
	w.Failed++
	return q.endAttemptLocked(t, fmt.Sprintf("attempt %d on worker %s: %s", t.Attempt, workerID, msg))
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
	ws := q.wal.Stats()
	s.WALAppends, s.WALErrors, s.WALCompactions, s.WALBytes = ws.Appends, ws.Errors, ws.Compactions, ws.Bytes
	return s
}

// Close shuts the queue down: leased tasks are requeued (counted in
// Stats.RequeuedClose), every outstanding ticket fails promptly with
// ErrClosed, and the sweeper stops. Close is idempotent. Completed
// results remain in the store, so re-running the same jobs after a
// restart redoes only the points that never finished. A durable queue
// deliberately journals nothing here — its live tasks stay in the
// write-ahead log, so the next NewDurableQueue over the same path
// recovers them; only the file handle is released.
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
		q.finishLocked(t, bp.RegionResult{}, ErrClosed)
	}
	q.pending = nil
	q.wal.Close()
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
		out[tk.Region] = res
	}
	return out, nil
}
