package store

import (
	"encoding/json"
	"io"
	"time"
)

// This file is the one journal every crash-safe control plane in the
// repository is built on: a typed, append-before-acknowledge record log
// over WAL. The farm queue (internal/farm/wal.go: task transitions) and the
// job manager (internal/service/journal.go: job lifecycle) each supply a
// record type, a fold that rebuilds their state from records, and a snapshot
// of live state for compaction; framing, replay, compaction policy, counters
// and failure handling live here and nowhere else.
//
// # Frame format
//
// Each record is the JSON encoding of an R, framed as
//
//	4 bytes  little-endian uint32   payload length n
//	4 bytes  little-endian uint32   CRC-32C (Castagnoli) of the payload
//	n bytes  payload
//
// Append writes and fsyncs the frame before returning, so a crash at any
// byte offset leaves a valid prefix of records followed by at most one torn
// frame. Replay reads frames until the first that is truncated, oversized
// or fails its checksum; OpenJournal truncates the file there. An intact
// frame whose payload does not decode as an R was written by someone else
// entirely: it is counted and skipped, never allowed to hide the records
// around it. What a decoded record means — including ops a client no longer
// writes — is the client fold's business.
//
// # Compaction
//
// A journal's only job is to reconstruct live state, not to audit finished
// work, so it is periodically rewritten (atomically: temp file, fsync,
// rename) to a snapshot of exactly that state. Clients compact once at
// startup after replay, and AppendLive compacts before an append whenever
// the log holds at least journalCompactMinRecords records and at least
// journalCompactFactor records per live item — so a small log is never
// rewritten and a large busy one is not rewritten while it is still mostly
// live state. The file is therefore bounded by the live state, not by
// history. A snapshot must be a replay fixpoint: replaying it and
// snapshotting again yields the same records.
//
// # Closed, absent and broken journals
//
// A nil *Journal is the in-memory mode of its clients and a closed one
// (after Close) is a control plane that has stopped: both record nothing —
// Append and Compact return nil, Stats keeps the counters — so clients
// need no second code path. If an append fails partway the partial frame is
// rolled back; if even that fails the log is broken (ErrWALBroken on every
// later append) until a compaction replaces the file or the process
// restarts and OpenJournal revalidates the tail. Every failed append or
// compaction counts in Stats().Errors; the caller must leave the in-memory
// transition the record described unapplied.

const (
	journalCompactMinRecords = 1024
	journalCompactFactor     = 4
)

// Journal is a typed, durable, growth-bounded record log. It is not
// internally locked: the owner serializes Append/Compact/Stats under the
// mutex that guards the state the journal mirrors, which also keeps the
// log's order identical to the in-memory transitions.
type Journal[R any] struct {
	w      *WAL
	recs   int // records in the file: replayed + appended since the last compaction
	closed bool
	stats  JournalStats
}

// JournalReplay reports what OpenJournal read: Records intact frames
// (decodable or not), then Dropped bytes of torn tail truncated away.
type JournalReplay struct {
	Records int
	Dropped int64
}

// JournalStats is a journal's size and activity since it was opened.
type JournalStats struct {
	Durable     bool  `json:"durable"` // false only for a nil (in-memory) journal
	Bytes       int64 `json:"bytes"`   // intact frames on disk
	Appends     int64 `json:"appends"`
	Errors      int64 `json:"errors"` // failed appends and compactions
	Compactions int64 `json:"compactions"`
}

// ReplayJournal folds every intact, decodable record of r through apply, in
// order, and returns the byte length of the valid frame prefix and the
// number of intact frames in it. It never fails on damaged input — a torn
// or corrupt tail ends the replay — which is what lets a fuzzer drive a
// client's fold on raw bytes.
func ReplayJournal[R any](r io.Reader, apply func(R)) (validLen int64, records int, err error) {
	return replayFrames(r, decodeInto(apply))
}

func decodeInto[R any](apply func(R)) func([]byte) error {
	return func(payload []byte) error {
		var rec R
		if json.Unmarshal(payload, &rec) == nil {
			apply(rec)
		}
		return nil
	}
}

// OpenJournal opens (creating if needed) the journal at path, folding the
// records already there through apply in a single pass and truncating any
// torn tail, so appends start at a record boundary.
func OpenJournal[R any](path string, apply func(R)) (*Journal[R], JournalReplay, error) {
	w, records, dropped, err := openWAL(path, decodeInto(apply))
	if err != nil {
		return nil, JournalReplay{}, err
	}
	return &Journal[R]{w: w, recs: records}, JournalReplay{Records: records, Dropped: dropped}, nil
}

func (j *Journal[R]) off() bool { return j == nil || j.closed }

// Append durably records rec: it is framed, written and fsynced before
// Append returns nil.
func (j *Journal[R]) Append(rec R) error {
	if j.off() {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := j.w.Append(b); err != nil {
		j.stats.Errors++
		return err
	}
	j.stats.Appends++
	j.recs++
	return nil
}

// grown reports whether the log has outgrown live items of live state far
// enough (see Compaction above) to be compacted before the next append.
func (j *Journal[R]) grown(live int) bool {
	return !j.off() && j.recs >= journalCompactMinRecords && j.recs >= journalCompactFactor*live
}

// AppendLive is the owners' append: Append behind the compaction policy. A
// log grown far past the owner's live items of state is first compacted to
// snapshot() — called only then — so rec lands in the fresh log.
func (j *Journal[R]) AppendLive(rec R, live int, snapshot func() []R) error {
	if j.grown(live) {
		if err := j.Compact(snapshot()); err != nil {
			return err
		}
	}
	return j.Append(rec)
}

// Compact atomically replaces the log's contents with snapshot. A crash at
// any point leaves either the old log or the new one, never a mix.
func (j *Journal[R]) Compact(snapshot []R) error {
	if j.off() {
		return nil
	}
	payloads := make([][]byte, len(snapshot))
	for i, rec := range snapshot {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		payloads[i] = b
	}
	if err := j.w.rewrite(payloads); err != nil {
		j.stats.Errors++
		return err
	}
	j.recs = len(payloads)
	j.stats.Compactions++
	return nil
}

// Stats returns the journal's size and activity counters.
func (j *Journal[R]) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	s := j.stats
	s.Durable, s.Bytes = true, j.w.size
	return s
}

// SetObserver installs a timing observer for durable operations: op
// "append" per Append, "rewrite" per Compact. Call it before the journal
// is shared across goroutines.
func (j *Journal[R]) SetObserver(fn func(op string, d time.Duration)) {
	if j != nil {
		j.w.observer = fn
	}
}

// Close stops the journal and releases the file; the log stays on disk for
// the next OpenJournal. Close is idempotent.
func (j *Journal[R]) Close() error {
	if j.off() {
		return nil
	}
	j.closed = true
	return j.w.Close()
}
