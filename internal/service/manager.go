package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"barrierpoint/internal/farm"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

// Status is a job lifecycle state.
type Status string

// Job states, in order.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Snapshot is a point-in-time copy of a job's state, safe to serialize.
type Snapshot struct {
	ID      string  `json:"id"`
	Request Request `json:"request"`
	Status  Status  `json:"status"`
	Error   string  `json:"error,omitempty"`
	// Cached reports that the job's result came from the store without
	// recomputation.
	Cached   bool            `json:"cached"`
	Result   json.RawMessage `json:"result,omitempty"`
	Created  time.Time       `json:"created"`
	Started  time.Time       `json:"started,omitzero"`
	Finished time.Time       `json:"finished,omitzero"`
	// TraceID is the job's telemetry trace ID, minted at Submit and
	// propagated onto every farm task run on the job's behalf.
	TraceID string `json:"trace_id,omitempty"`
	// Recovered reports that the job crossed a coordinator restart: it
	// was replayed from the job journal as live work and either resolved
	// from the store or re-enqueued under its original ID.
	Recovered bool `json:"recovered,omitempty"`
	// Span is the job's stage-timing span: per-stage durations (profile,
	// cluster, simulate-points, reconstruct, adaptive-round, ...) that
	// partition the job's wall clock, plus concurrent stages (trace-decode,
	// warmup-capture) that overlap them. Present once the job has started.
	Span *obs.SpanData `json:"span,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (s Snapshot) Terminal() bool { return s.Status == StatusDone || s.Status == StatusFailed }

// Errors returned by Submit.
var (
	ErrClosed = errors.New("service: manager is shut down")
	ErrBusy   = errors.New("service: job queue is full")
)

// job is a Snapshot — the memory form is the wire form — plus what only the
// running manager holds: the plan the pipeline computes, the channel Wait
// blocks on, and the live span a snapshot copies out of.
type job struct {
	Snapshot
	plan
	done chan struct{}
	span *obs.Span // set when the job starts running
}

// maxRetained bounds the finished jobs kept for status polling: once
// exceeded, the oldest terminal jobs (and their result payloads) are
// dropped. In-flight jobs are never dropped, so a long-running server's
// memory stays proportional to its queue, not its history.
const maxRetained = 1024

// Manager runs jobs asynchronously on a bounded worker pool over one
// store. Identical requests (same kind, trace and parameters) submitted
// while one is queued or running coalesce onto a single job, and the
// profiling stage itself is additionally single-flight per (trace,
// analysis config) across job kinds (see service.go) — combined with
// the store's artifact cache, every expensive stage runs at most once per
// (trace, parameters).
type Manager struct {
	st *store.Store
	// pipe is the half that knows what a job computes (pipeline.go). The
	// lifecycle in this file reaches it through exactly two calls, held as
	// fields so a test can run the lifecycle alone against stubs: plan turns
	// a request into its plan or rejects it, compute runs a plan, timing it
	// into the job's span, and returns the result bytes.
	pipe    *pipeline
	plan    func(Request) (plan, error)
	compute func(plan, *obs.Span) (result json.RawMessage, cached bool, err error)

	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	inflight map[string]*job // dedup key → queued or running job
	seq      int
	closed   bool

	// Job journal (EnableJournal): lifecycle records appended under m.mu
	// so the log's order matches the in-memory transitions it mirrors.
	journal     *store.Journal[journalRecord]
	jobRecovery JobRecovery

	submitted, deduped, done, failed, cacheHits, farmRecovered, recovered atomic.Int64

	// Telemetry: reg serves GET /metrics (the atomics above and the
	// pipeline's stay the source of truth, bridged in via CounterFuncs);
	// spans retains finished job spans for bptool trace and debugging.
	reg   *obs.Registry
	spans *obs.SpanRecorder
}

// New starts a manager with the given worker count (GOMAXPROCS if <= 0)
// and queue depth (256 if <= 0).
func New(st *store.Store, workers, depth int) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 256
	}
	m := &Manager{
		st:       st,
		queue:    make(chan *job, depth),
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),
		reg:      obs.NewRegistry(),
		spans:    obs.NewSpanRecorder(0),
	}
	m.pipe = newPipeline(st, m.reg)
	m.plan, m.compute = m.pipe.plan, m.pipe.run
	counterFunc(m.reg, "bp_jobs_submitted_total", "Jobs accepted by Submit (dedup hits excluded).", &m.submitted)
	counterFunc(m.reg, "bp_jobs_deduped_total", "Submissions coalesced onto an in-flight identical job.", &m.deduped)
	counterFunc(m.reg, "bp_jobs_done_total", "Jobs finished successfully.", &m.done)
	counterFunc(m.reg, "bp_jobs_failed_total", "Jobs finished in error.", &m.failed)
	counterFunc(m.reg, "bp_job_cache_hits_total", "Jobs answered from the artifact store without recomputation.", &m.cacheHits)
	counterFunc(m.reg, "bp_farm_tasks_recovered_total", "Tasks rebuilt from the farm write-ahead log at startup.", &m.farmRecovered)
	counterFunc(m.reg, "bp_jobs_recovered_total", "Jobs restored from the job journal at startup (already terminal, resolved from the store, or re-enqueued).", &m.recovered)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.run(j)
			}
		}()
	}
	return m
}

// Metrics returns the manager's metrics registry; servers mount
// Metrics().Handler() at GET /metrics and may register their own series
// on it.
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// Spans returns the recorder of finished job spans, newest last.
func (m *Manager) Spans() *obs.SpanRecorder { return m.spans }

// Store returns the manager's artifact store.
func (m *Manager) Store() *store.Store { return m.st }

// SetFarm attaches a distributed work queue; estimates may then farm
// their barrierpoint simulations out to registered workers. Call it once,
// before the first Submit. A durable queue (farm.NewDurableQueue) may
// arrive already holding tasks recovered from its write-ahead log; a
// re-submitted estimate job re-attaches to them through the queue's
// TraceKey+artifact dedup in Enqueue, so a coordinator restart loses no
// queued or in-flight simulation work.
func (m *Manager) SetFarm(q *farm.Queue) {
	m.pipe.farm = q
	if q != nil {
		rec := q.Recovery()
		m.farmRecovered.Store(int64(rec.Pending + rec.Requeued))
		q.Instrument(m.reg)
	}
}

// Farm returns the attached work queue, or nil when execution is
// local-only.
func (m *Manager) Farm() *farm.Queue { return m.pipe.farm }

// Submit queues a job, or returns the in-flight job already running the
// identical request. The returned snapshot has at least StatusQueued.
func (m *Manager) Submit(req Request) (Snapshot, error) {
	p, err := m.plan(req)
	if err != nil {
		return Snapshot{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Snapshot{}, ErrClosed
	}
	if j, ok := m.inflight[p.dedup]; ok {
		m.deduped.Add(1)
		return m.snapshotLocked(j), nil
	}
	// Reject before journaling: under m.mu only Submit (and recovery)
	// produce into the queue, and workers only drain it, so observing
	// len < cap here makes the send below non-blocking.
	if len(m.queue) == cap(m.queue) {
		return Snapshot{}, ErrBusy
	}
	m.seq++
	j := &job{
		Snapshot: Snapshot{
			ID:      fmt.Sprintf("job-%06d", m.seq),
			Request: req,
			Status:  StatusQueued,
			Created: time.Now(),
			TraceID: obs.NewTraceID(),
		},
		plan: p,
		done: make(chan struct{}),
	}
	// Journal-before-ack: a job is accepted only once its submit record
	// is durable, so every acknowledged job survives a crash. (A crash
	// after the append but before the client reads the response re-runs
	// work that was never acked — harmless, the artifacts dedup.)
	if err := m.appendJournalLocked(submitRecord(j)); err != nil {
		m.seq--
		return Snapshot{}, fmt.Errorf("service: journaling job: %w", err)
	}
	m.queue <- j
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.inflight[p.dedup] = j
	m.submitted.Add(1)
	return m.snapshotLocked(j), nil
}

// Get returns the current state of a job.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Snapshot{}, false
	}
	return m.snapshotLocked(j), true
}

// Jobs lists all jobs in submission order.
func (m *Manager) Jobs() []Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Snapshot, len(m.order))
	for i, id := range m.order {
		out[i] = m.snapshotLocked(m.jobs[id])
	}
	return out
}

// Wait blocks until the job reaches a terminal state or ctx is done.
func (m *Manager) Wait(ctx context.Context, id string) (Snapshot, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotLocked(j), nil
}

// Shutdown stops accepting jobs, lets queued and running jobs finish, and
// returns when the pool has drained or ctx expires. During the drain the
// farm queue (if attached) keeps leasing and accepting results, so
// in-flight farmed jobs finish normally as workers stream their tasks
// back. If ctx expires first, the farm queue is closed: leased tasks are
// requeued and every farmed job blocked on them fails promptly with
// farm.ErrClosed instead of hanging until lease TTLs expire — their
// completed points are already cached in the store, so a retry after
// restart redoes only the unfinished ones. A durable farm queue keeps its
// live tasks journaled in the write-ahead log across Close, so the next
// coordinator recovers them outright.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		if q := m.Farm(); q != nil {
			q.Close()
		}
		// Every worker has exited, so every final done/failed record is
		// already journaled; only now is the journal closed. (Closing
		// earlier would race job completion against the WAL handle.)
		m.mu.Lock()
		m.journal.Close()
		m.mu.Unlock()
		return nil
	case <-ctx.Done():
	}
	if q := m.Farm(); q != nil {
		q.Close()
		// Closing the queue unblocks farm waits; give the pool a short
		// grace to observe the failures and drain cleanly.
		select {
		case <-drained:
		case <-time.After(time.Second):
		}
	}
	// The drain timed out: workers may still be appending, so the journal
	// handle stays open and the exit looks like a crash to the next life —
	// which is exactly the case replay is built for. Unfinished jobs
	// re-enqueue or resolve from the store on restart.
	return ctx.Err()
}

// pruneLocked evicts the oldest terminal jobs past the retention bound;
// m.mu must be held. Eviction skips over still-queued or running jobs.
func (m *Manager) pruneLocked() {
	excess := len(m.jobs) - maxRetained
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && j.Terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// snapshotLocked copies a job's state; m.mu must be held.
func (m *Manager) snapshotLocked(j *job) Snapshot {
	s := j.Snapshot
	if j.span != nil {
		d := j.span.Data()
		s.Span = &d
	}
	return s
}

// run executes one job on a worker goroutine.
func (m *Manager) run(j *job) {
	m.mu.Lock()
	j.Status = StatusRunning
	j.Started = time.Now()
	j.span = obs.NewSpan(j.TraceID, string(j.Request.Kind))
	j.span.SetAttr("job", j.ID)
	if j.Recovered {
		// The marker bptool trace and debug surfaces show for jobs that
		// crossed a coordinator restart.
		j.span.SetAttr("recovered", "true")
	}
	m.mu.Unlock()

	result, cached, err := m.compute(j.plan, j.span)
	j.span.Finish()
	m.spans.Record(j.span.Data())

	m.mu.Lock()
	j.Finished = time.Now()
	j.Cached = cached
	if err != nil {
		j.Status = StatusFailed
		j.Error = err.Error()
	} else {
		j.Status = StatusDone
		j.Result = result
	}
	// The terminal record is best-effort (its error counts in JournalStats
	// and is otherwise dropped): the durable truth — the request in the
	// submit record, the result artifact in the store — already exists, so
	// recovery reaches the same state without it, and failing the job over
	// this append would turn a disk hiccup into a lost result.
	_ = m.appendJournalLocked(terminalRecord(j))
	delete(m.inflight, j.dedup)
	m.pruneLocked()
	m.mu.Unlock()
	if err != nil {
		m.failed.Add(1)
	} else {
		m.done.Add(1)
	}
	if cached {
		m.cacheHits.Add(1)
	}
	close(j.done)
}
