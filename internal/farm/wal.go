package farm

import (
	"sort"
	"time"

	"barrierpoint/internal/store"
)

// This file gives the queue its durability: the transitions whose facts
// nothing else keeps are journaled to a store.Journal before they are
// applied in memory, and a restarted coordinator replays the journal to
// rebuild the live tasks it was killed with. What is the queue's own lives
// here — the record type, the replay fold, turning folded state back into
// live tasks, and the compaction snapshot; framing, replay mechanics and
// the compaction policy are store.Journal's (internal/store/journal.go).
// See doc.go ("Durability") for the record table and recovery semantics.

// WAL operation tags. The journal is the source of truth on replay: each
// record describes one applied transition, so replay is a pure fold with
// no dependence on queue configuration (MaxAttempts may even change
// between restarts without invalidating the log). Leases and completions
// are not journaled (doc.go's "Durability" says why); the fold skips the
// "lease" and "complete" records of older logs like any unknown op.
const (
	opEnqueue = "enqueue" // a new task entered the queue (or survived a compaction)
	opRequeue = "requeue" // an attempt failed or expired; task back to pending
	opFail    = "fail"    // attempts exhausted; task failed permanently
)

// walRecord is the JSON payload of one WAL frame.
type walRecord struct {
	Op string `json:"op"`
	// Task is set on enqueue records; compaction re-emits live tasks as
	// enqueue records carrying their failed-attempt count.
	Task *Task `json:"task,omitempty"`
	// Failures carries a task's accumulated per-attempt failure log across
	// compaction.
	Failures []string `json:"failures,omitempty"`
	// ID names the task for requeue/fail records.
	ID string `json:"id,omitempty"`
	// Msg is the failure message logged by requeue/fail records.
	Msg string `json:"msg,omitempty"`
}

// Recovery reports what a durable queue rebuilt from its journal.
type Recovery struct {
	// Records is the number of intact journal records replayed; Dropped
	// is the byte length of the torn tail (if any) discarded after them.
	Records int   `json:"wal_records"`
	Dropped int64 `json:"wal_dropped_bytes"`
	// Pending tasks re-entered the queue: every live task whose result
	// is not in the store, whether or not a worker held it at the crash.
	Pending int `json:"tasks_pending"`
	// StoreHits are live tasks whose result artifact already sits in the
	// store (a worker uploaded it before the crash); they resolve
	// instantly instead of re-running.
	StoreHits int `json:"store_hits"`
	// Failed counts permanent failures observed in the journal — work that
	// needed nothing at recovery beyond compaction.
	Failed int `json:"tasks_failed"`
}

// walState is the fold target of a journal replay: the live tasks as the
// journal leaves them (Task, failures and seq set; the runtime-only
// fields are NewDurableQueue's to fill).
type walState struct {
	tasks   map[string]*task
	nextSeq int
	failed  int
}

func newWALState() *walState {
	return &walState{tasks: make(map[string]*task)}
}

// apply folds one journal record into the state. Records that do not
// resolve against the current state (an unknown id or op) are skipped:
// replay must accept any intact prefix the framing layer delivers,
// including logs from older binaries and from a fuzzer.
func (s *walState) apply(rec walRecord) {
	switch rec.Op {
	case opEnqueue:
		if rec.Task == nil || rec.Task.ID == "" {
			return
		}
		t := &task{Task: *rec.Task, failures: rec.Failures, seq: s.nextSeq}
		s.nextSeq++
		s.tasks[t.ID] = t
	case opRequeue:
		t, ok := s.tasks[rec.ID]
		if !ok {
			return
		}
		if rec.Msg != "" {
			t.failures = append(t.failures, rec.Msg)
		}
		t.Attempt++
		t.seq = s.nextSeq
		s.nextSeq++
	case opFail:
		if _, ok := s.tasks[rec.ID]; ok {
			delete(s.tasks, rec.ID)
			s.failed++
		}
	}
}

// live returns the recovered tasks in queue order: by seq, the order in
// which each last entered the pending queue.
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
// first: every live task returns to the pending queue in order under its
// original ID (a worker that held it before the crash may still upload
// its result, which completes it), with as many attempts used as the
// journal logged failures, and tasks whose result artifact already reached
// the store resolve on the spot. The log is then compacted to exactly the
// live state before the queue starts. Recovered tasks carry fresh
// tickets with no waiters; a re-submitted job re-attaches to them through
// Enqueue's TraceKey+artifact dedup.
func NewDurableQueue(st *store.Store, cfg Config, walPath string) (*Queue, Recovery, error) {
	state := newWALState()
	w, replay, err := store.OpenJournal(walPath, state.apply)
	if err != nil {
		return nil, Recovery{}, err
	}
	rec := Recovery{Records: replay.Records, Dropped: replay.Dropped, Failed: state.failed}
	q := newQueue(st, cfg)
	q.wal = w
	for _, t := range state.live() {
		// Completions are not journaled: a task whose result reached the
		// store is done (the next Enqueue for this point dedups against
		// the store).
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
		rec.Pending++
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
// task, carrying its failure log and its failed-attempt count (a lease in
// flight is not one). q.mu must be held (or the queue not yet shared).
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
		snap := t.Task
		if t.leased {
			snap.Attempt--
		}
		recs = append(recs, walRecord{Op: opEnqueue, Task: &snap, Failures: t.failures})
	}
	return recs
}

// Recovery returns what this queue rebuilt from its journal at
// construction (all zeros for in-memory queues and fresh logs).
func (q *Queue) Recovery() Recovery { return q.recovery }
