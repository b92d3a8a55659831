package service

import (
	"encoding/json"
	"fmt"
	"time"

	"barrierpoint/internal/store"
)

// This file gives the job manager its durability: a job's acceptance and
// its terminal state are journaled to a store.Journal before Submit
// acknowledges or a worker moves on, and a restarted coordinator replays
// the journal to rebuild exactly the jobs it was killed with — same IDs,
// same trace IDs. Jobs whose result artifact already landed in the
// content-addressed store resolve on the spot (the crash beat the
// journal's done record, not the work); the rest re-enter the queue and
// recompute through the same artifact caches, so recovered results are
// byte-identical to an uninterrupted run. Framing, replay mechanics and
// the compaction policy are store.Journal's (internal/store/journal.go,
// shared with the farm queue); this file holds the record type, the replay
// fold, turning folded state back into jobs, and the compaction snapshot.

// Journal operation tags: only what recovery reads is recorded. Progress
// (a job starting, a stage finishing) lives in spans and
// bp_job_stage_seconds; logs written before that split carry "running" and
// "stage" records, which the fold skips like any op it does not know.
const (
	jopSubmit = "submit" // job accepted (or re-emitted by compaction)
	jopDone   = "done"   // result stored; Artifact names where
	jopFailed = "failed" // terminal failure with its message
)

// journalRecord is the JSON payload of one job-journal WAL frame.
type journalRecord struct {
	Op string `json:"op"`
	ID string `json:"id"`
	// Req, CfgHash, TraceID and CreatedNs describe the job on
	// submit records; compaction re-emits them for every retained job.
	Req       *Request `json:"req,omitempty"`
	CfgHash   string   `json:"cfg,omitempty"`
	TraceID   string   `json:"trace_id,omitempty"`
	CreatedNs int64    `json:"created_ns,omitempty"`
	// Artifact names the store artifact holding the result on done
	// records — the journal never embeds result bytes, it points into
	// the content-addressed store.
	Artifact string `json:"artifact,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	// Error carries the failure message on failed records.
	Error      string `json:"error,omitempty"`
	FinishedNs int64  `json:"finished_ns,omitempty"`
}

// JobRecovery reports what a journaled manager rebuilt at startup.
type JobRecovery struct {
	// Records is the number of intact journal records replayed; Dropped
	// is the byte length of the torn tail (if any) discarded after them.
	Records int   `json:"journal_records"`
	Dropped int64 `json:"journal_dropped_bytes"`
	// Resolved jobs were live at the crash but their result artifact was
	// already in the store — they complete instantly, without recompute.
	Resolved int `json:"jobs_resolved"`
	// Requeued jobs were queued or running at the crash and re-entered
	// the queue under their original IDs.
	Requeued int `json:"jobs_requeued"`
	// Terminal jobs had finished (done or failed) before the crash and
	// are restored for status polling.
	Terminal int `json:"jobs_terminal"`
	// Unrecoverable jobs no longer validate (e.g. their trace left the
	// store); they are restored as failed rather than silently dropped.
	Unrecoverable int `json:"jobs_unrecoverable"`
}

// journalState is the fold target of a journal replay: the jobs the
// journal describes, in submission order. A job no terminal record reached
// is still StatusQueued — it was live at the crash.
type journalState struct {
	jobs  map[string]*job
	order []string
}

// apply folds one record into the state. Records that do not resolve
// against the current state (an unknown id, an unknown op, a malformed
// payload) are skipped: replay must accept any intact prefix the framing
// layer delivers.
func (s *journalState) apply(rec journalRecord) {
	switch rec.Op {
	case jopSubmit:
		if rec.ID == "" || rec.Req == nil {
			return
		}
		if _, dup := s.jobs[rec.ID]; dup {
			return
		}
		s.jobs[rec.ID] = &job{
			Snapshot: Snapshot{
				ID: rec.ID, Request: *rec.Req, Status: StatusQueued, TraceID: rec.TraceID,
				Created: time.Unix(0, rec.CreatedNs), Recovered: true,
			},
			done: make(chan struct{}),
		}
		s.order = append(s.order, rec.ID)
	case jopDone:
		if j, ok := s.jobs[rec.ID]; ok {
			j.Status, j.artifact, j.Cached = StatusDone, rec.Artifact, rec.Cached
			j.Finished = time.Unix(0, rec.FinishedNs)
		}
	case jopFailed:
		if j, ok := s.jobs[rec.ID]; ok {
			j.Status, j.Error = StatusFailed, rec.Error
			j.Finished = time.Unix(0, rec.FinishedNs)
		}
	}
}

// EnableJournal makes the manager's job state durable: lifecycle records
// are journaled to the write-ahead log at path, and any records already
// there — the normal case after a crash or restart — are replayed first.
// Replayed jobs keep their original IDs and trace IDs and are marked
// recovered: terminal jobs are restored for status polling (results
// reloaded from their store artifacts, never trusted from the journal),
// live jobs whose artifact already landed resolve immediately, and the
// rest re-enter the queue. The log is then compacted to exactly the
// retained state.
//
// Call it once, after SetFarm (recovered estimates may farm their
// points) and before the first Submit.
func (m *Manager) EnableJournal(path string) (JobRecovery, error) {
	state := &journalState{jobs: make(map[string]*job)}
	w, replay, err := store.OpenJournal(path, state.apply)
	if err != nil {
		return JobRecovery{}, err
	}
	rec := JobRecovery{Records: replay.Records, Dropped: replay.Dropped}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		w.Close()
		return JobRecovery{}, ErrClosed
	}
	m.journal = w
	for _, id := range state.order {
		j := state.jobs[id]
		if n := jobSeq(id); n > m.seq {
			m.seq = n
		}
		terminal := j.Status == StatusFailed
		if j.Status == StatusDone {
			if b, err := m.st.GetArtifact(j.Request.Trace, j.artifact); err == nil {
				j.Result, terminal = json.RawMessage(b), true
			} else {
				// The journal says done but the artifact is gone (a wiped or
				// partial store): the work needs redoing, as for a live job.
				j.Cached, j.Finished = false, time.Time{}
			}
		}
		if terminal {
			close(j.done)
			rec.Terminal++
		} else {
			m.recoverLiveLocked(j, &rec)
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
	}
	m.recovered.Store(int64(rec.Resolved + rec.Requeued + rec.Terminal))
	m.jobRecovery = rec
	if err := w.Compact(m.retainedRecordsLocked()); err != nil {
		m.journal = nil
		w.Close()
		return JobRecovery{}, err
	}
	return rec, nil
}

// recoverLiveLocked restores one non-terminal journal job: resolve it
// from the store if its result artifact already landed, otherwise
// re-enqueue it under its original ID; a job that cannot be either is
// restored as failed rather than silently dropped. m.mu must be held.
func (m *Manager) recoverLiveLocked(j *job, rec *JobRecovery) {
	finish := func(status Status, errMsg string) {
		j.Status, j.Error, j.Finished = status, errMsg, time.Now()
		close(j.done)
	}
	p, err := m.plan(j.Request)
	if err != nil {
		finish(StatusFailed, fmt.Sprintf("not recoverable after restart: %v", err))
		rec.Unrecoverable++
		return
	}
	j.plan = p
	if b, err := m.st.GetArtifact(j.Request.Trace, j.artifact); err == nil {
		// The worker (or this coordinator's dying breath) stored the
		// result, but the crash beat the done record: the job is done,
		// only the journal didn't know yet.
		j.Result, j.Cached = json.RawMessage(b), true
		finish(StatusDone, "")
		rec.Resolved++
		return
	}
	if prev, dup := m.inflight[j.dedup]; dup {
		// Two live journal jobs with one dedup key can only come from a
		// hand-damaged journal; Submit would have coalesced them.
		finish(StatusFailed, fmt.Sprintf("duplicate of recovered job %s", prev.ID))
		rec.Unrecoverable++
		return
	}
	if len(m.queue) == cap(m.queue) {
		finish(StatusFailed, "job queue full at recovery")
		rec.Unrecoverable++
		return
	}
	j.Status = StatusQueued
	m.queue <- j // cannot block: len < cap observed under m.mu, workers only drain
	m.inflight[j.dedup] = j
	rec.Requeued++
}

// jobSeq extracts the numeric suffix of a "job-%06d" id (0 for any other
// shape), so recovered managers continue the ID sequence past every
// replayed job instead of reissuing IDs.
func jobSeq(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil || n < 0 {
		return 0
	}
	return n
}

// submitRecord builds a job's submit journal record.
func submitRecord(j *job) journalRecord {
	req := j.Request
	return journalRecord{
		Op: jopSubmit, ID: j.ID, Req: &req, CfgHash: store.HashJSON(j.cfg),
		TraceID: j.TraceID, CreatedNs: j.Created.UnixNano(),
	}
}

// terminalRecord builds a finished job's done or failed journal record.
func terminalRecord(j *job) journalRecord {
	if j.Status == StatusFailed {
		return journalRecord{Op: jopFailed, ID: j.ID, Error: j.Error, FinishedNs: j.Finished.UnixNano()}
	}
	return journalRecord{
		Op: jopDone, ID: j.ID, Artifact: j.artifact, Cached: j.Cached,
		FinishedNs: j.Finished.UnixNano(),
	}
}

// appendJournalLocked journals one record (a no-op for in-memory
// managers, whose m.journal is nil, and after the journal closed); m.mu
// must be held. The record is durable before this returns nil.
func (m *Manager) appendJournalLocked(rec journalRecord) error {
	return m.journal.AppendLive(rec, len(m.jobs), m.retainedRecordsLocked)
}

// retainedRecordsLocked is the compaction snapshot: a submit record per
// retained job, plus its terminal record where one applies. Jobs pruned
// from the retention window drop out of the journal here, so the log
// tracks the manager's bounded memory, not its full history. m.mu must be
// held (or the manager not yet shared).
func (m *Manager) retainedRecordsLocked() []journalRecord {
	recs := make([]journalRecord, 0, 2*len(m.order))
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		recs = append(recs, submitRecord(j))
		if j.Terminal() {
			recs = append(recs, terminalRecord(j))
		}
	}
	return recs
}

// JournalStats returns the job journal's size and activity counters for
// health surfaces (zero-valued when no journal is enabled).
func (m *Manager) JournalStats() store.JournalStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.journal.Stats()
}

// JobRecovery returns what this manager rebuilt from its job journal at
// EnableJournal (all zeros without a journal or with a fresh log).
func (m *Manager) JobRecovery() JobRecovery {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobRecovery
}
