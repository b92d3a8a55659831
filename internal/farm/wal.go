package farm

import (
	"fmt"
	"sort"
	"time"

	"barrierpoint/internal/store"
)

// This file gives the queue its durability: every state transition is
// journaled to a store.Journal before it is applied in memory, and a
// restarted coordinator replays the journal to rebuild exactly the pending
// and in-flight tasks it was killed with. What is the queue's own lives
// here — the record type, the replay fold, turning folded state back into
// live tasks, and the compaction snapshot; framing, replay mechanics and
// the compaction policy are store.Journal's (internal/store/journal.go).
// See doc.go ("Durability") for the record table and recovery semantics.

// WAL operation tags. The journal is the source of truth on replay: each
// record describes one applied transition, so replay is a pure fold with
// no dependence on queue configuration (MaxAttempts may even change
// between restarts without invalidating the log).
const (
	opEnqueue  = "enqueue"  // a new task entered the queue (or survived a compaction)
	opLease    = "lease"    // a worker took the task; Attempt is the lease's attempt number
	opRequeue  = "requeue"  // a lease ended in failure/expiry; task back to pending
	opComplete = "complete" // result stored as a store artifact; task done
	opFail     = "fail"     // attempts exhausted; task failed permanently
)

// walRecord is the JSON payload of one WAL frame.
type walRecord struct {
	Op string `json:"op"`
	// Task is set on enqueue records; compaction re-emits live tasks as
	// enqueue records carrying their current Attempt.
	Task *Task `json:"task,omitempty"`
	// Failures carries a task's accumulated per-attempt failure log across
	// compaction.
	Failures []string `json:"failures,omitempty"`
	// ID names the task for lease/requeue/complete/fail records.
	ID string `json:"id,omitempty"`
	// Worker and Attempt describe a lease.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Msg is the failure message logged by requeue/fail records.
	Msg string `json:"msg,omitempty"`
}

// Recovery reports what a durable queue rebuilt from its journal.
type Recovery struct {
	// Records is the number of intact journal records replayed; Dropped
	// is the byte length of the torn tail (if any) discarded after them.
	Records int   `json:"wal_records"`
	Dropped int64 `json:"wal_dropped_bytes"`
	// Pending tasks were queued (never leased, or requeued) at the crash;
	// Requeued tasks were leased in flight — their workers may be gone, so
	// they re-enter the pending queue immediately.
	Pending  int `json:"tasks_pending"`
	Requeued int `json:"leases_requeued"`
	// StoreHits are recovered tasks whose result artifact already sits in
	// the store (the worker uploaded it, but the crash beat the journal's
	// complete record); they resolve instantly instead of re-running.
	StoreHits int `json:"store_hits"`
	// Completed and Failed count terminal transitions observed in the
	// journal — work that needed nothing at recovery beyond compaction.
	Completed int `json:"tasks_completed"`
	Failed    int `json:"tasks_failed"`
}

// walState is the fold target of a journal replay: the live tasks as the
// journal leaves them (Task, failures, leased, worker and seq set; the
// runtime-only fields are NewDurableQueue's to fill).
type walState struct {
	tasks     map[string]*task
	nextSeq   int
	completed int
	failed    int
}

func newWALState() *walState {
	return &walState{tasks: make(map[string]*task)}
}

// apply folds one journal record into the state. Records that do not
// resolve against the current state (an unknown id, a lease of a finished
// task) are skipped: replay must accept any intact prefix the framing
// layer delivers, including logs from a fuzzer.
func (s *walState) apply(rec walRecord) {
	switch rec.Op {
	case opEnqueue:
		if rec.Task == nil || rec.Task.ID == "" {
			return
		}
		t := &task{Task: *rec.Task, failures: rec.Failures, seq: s.nextSeq}
		s.nextSeq++
		s.tasks[t.ID] = t
	case opLease:
		t, ok := s.tasks[rec.ID]
		if !ok {
			return
		}
		t.leased = true
		t.worker = rec.Worker
		if rec.Attempt > 0 {
			t.Attempt = rec.Attempt
		} else {
			t.Attempt++
		}
		t.seq = s.nextSeq
		s.nextSeq++
	case opRequeue:
		t, ok := s.tasks[rec.ID]
		if !ok {
			return
		}
		if rec.Msg != "" {
			t.failures = append(t.failures, rec.Msg)
		}
		t.leased = false
		t.worker = ""
		t.seq = s.nextSeq
		s.nextSeq++
	case opComplete:
		if _, ok := s.tasks[rec.ID]; ok {
			delete(s.tasks, rec.ID)
			s.completed++
		}
	case opFail:
		if _, ok := s.tasks[rec.ID]; ok {
			delete(s.tasks, rec.ID)
			s.failed++
		}
	}
}

// live returns the recovered tasks ordered for requeueing: by seq, which
// interleaves pending tasks in their queue order and puts each in-flight
// lease where its lease record fell in the journal.
func (s *walState) live() []*task {
	out := make([]*task, 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// NewDurableQueue creates a queue whose state is journaled to the
// write-ahead log at walPath. If the log already holds records — the
// normal case after a coordinator crash or restart — they are replayed
// first: tasks that were pending return to the pending queue in order,
// tasks that were leased re-enter pending immediately (the leasing worker
// may be gone; if it is not, its eventual upload is accepted
// idempotently), and tasks whose result artifact already reached the
// store resolve on the spot. The log is then compacted to exactly the
// live state before the queue starts. Recovered tasks carry fresh
// tickets with no waiters; a re-submitted job re-attaches to them through
// Enqueue's TraceKey+artifact dedup.
func NewDurableQueue(st *store.Store, cfg Config, walPath string) (*Queue, Recovery, error) {
	state := newWALState()
	w, replay, err := store.OpenJournal(walPath, state.apply)
	if err != nil {
		return nil, Recovery{}, err
	}
	rec := Recovery{
		Records: replay.Records, Dropped: replay.Dropped,
		Completed: state.completed, Failed: state.failed,
	}
	q := newQueue(st, cfg)
	q.wal = w
	for _, t := range state.live() {
		// A result uploaded between the artifact store write and the
		// journal's complete record shows up here as a live task with a
		// finished artifact: count it done instead of re-simulating (the
		// next Enqueue for this point dedups against the store).
		if _, ok, _ := loadPoint(st, t.TraceKey, t.Artifact); ok {
			rec.StoreHits++
			continue
		}
		t.dedup = t.TraceKey + "|" + t.Artifact
		if _, dup := q.byDedup[t.dedup]; dup {
			// Two live tasks for one dedup key can only come from a
			// hand-damaged or fuzzed journal; keep the first so the runtime
			// invariant (one live task per key) holds.
			continue
		}
		t.created = time.Now() // latency telemetry restarts at recovery
		t.ticket = &Ticket{Region: t.Region, done: make(chan struct{})}
		if t.leased {
			t.failures = append(t.failures,
				fmt.Sprintf("attempt %d: coordinator restarted while leased to worker %s", t.Attempt, t.worker))
			t.leased, t.worker = false, ""
			rec.Requeued++
		} else {
			rec.Pending++
		}
		q.tasks[t.ID] = t
		q.byDedup[t.dedup] = t
		q.pending = append(q.pending, t)
	}
	q.recovery = rec
	if err := w.Compact(q.liveRecordsLocked()); err != nil {
		w.Close()
		return nil, Recovery{}, err
	}
	go q.sweep()
	return q, rec, nil
}

// appendWALLocked journals one record (a no-op for in-memory queues, whose
// q.wal is nil); q.mu must be held. The record is durable before this
// returns nil, so callers apply the in-memory transition only after the
// journal acknowledged it; on error they must leave the in-memory state
// untouched.
func (q *Queue) appendWALLocked(rec walRecord) error {
	if err := q.wal.AppendLive(rec, len(q.tasks), q.liveRecordsLocked); err != nil {
		return err
	}
	if q.crashHook != nil {
		return q.crashHook(rec.Op)
	}
	return nil
}

// liveRecordsLocked is the compaction snapshot: one enqueue record per live
// task (carrying its current attempt count and failure log), plus a lease
// record for each task currently out on a worker. q.mu must be held (or
// the queue not yet shared).
func (q *Queue) liveRecordsLocked() []walRecord {
	// Pending tasks first, in queue order, then any remaining live tasks
	// (the leased ones) by id: replaying the compacted log must rebuild
	// the same pending order the queue holds now.
	emitted := make(map[string]bool, len(q.tasks))
	var order []*task
	for _, t := range q.pending {
		if q.tasks[t.ID] != t || emitted[t.ID] {
			continue
		}
		emitted[t.ID] = true
		order = append(order, t)
	}
	rest := make([]*task, 0, len(q.tasks))
	for id, t := range q.tasks {
		if !emitted[id] {
			rest = append(rest, t)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return rest[i].ID < rest[j].ID })
	order = append(order, rest...)
	recs := make([]walRecord, 0, len(order))
	for _, t := range order {
		recs = append(recs, walRecord{Op: opEnqueue, Task: &t.Task, Failures: t.failures})
		if t.leased {
			recs = append(recs, walRecord{Op: opLease, ID: t.ID, Worker: t.worker, Attempt: t.Attempt})
		}
	}
	return recs
}

// Recovery returns what this queue rebuilt from its journal at
// construction (all zeros for in-memory queues and fresh logs).
func (q *Queue) Recovery() Recovery { return q.recovery }
