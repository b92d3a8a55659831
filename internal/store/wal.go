package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"barrierpoint/internal/fault"
)

// This file is the coordinator's one crash-safe log: an append-before-
// acknowledge log of byte records. Its client, the job manager
// (internal/service/journal.go), encodes its own records, folds them back
// at open and decides when to compact; framing, replay, rollback,
// compaction and the counters live here.
//
// # Frame format
//
// Each record is framed as
//
//	4 bytes  little-endian uint32   payload length n
//	4 bytes  little-endian uint32   CRC-32C (Castagnoli) of the payload
//	n bytes  payload
//
// Append writes and fsyncs the frame before returning, so a crash at any
// byte offset leaves a valid prefix of records followed by at most one torn
// frame. Replay reads frames until the first that is truncated, oversized
// or fails its checksum; ReplayWAL truncates the file there. What an intact
// payload means — including one the client cannot decode, or an op it no
// longer writes — is the client fold's business.
//
// # Compaction
//
// A log's only job is to reconstruct live state, not to audit finished
// work, so its client periodically compacts it to a snapshot of exactly
// that state, and once at startup after replay. Compact publishes the
// snapshot through the store's one publish path (publish, store.go): a
// crash at any point leaves either the old log or the new one, never a mix,
// plus at most a `.put-*` temp that the next Open sweeps. A snapshot must be
// a replay fixpoint: replaying it and snapshotting again yields the same
// records.
//
// # Closed, absent and broken logs
//
// A nil *WAL is the in-memory mode of its client and a closed one (after
// Close) is a control plane that has stopped: both record nothing — Append
// and Compact return nil, Stats keeps the counters — so the client needs no
// second code path. If an append fails partway the partial frame is rolled
// back; if even that fails the log is broken (ErrWALBroken on every later
// append) until a compaction replaces the file or the process restarts and
// ReplayWAL revalidates the tail. Every failed append or compaction counts
// in Stats().Errors; the caller must leave the in-memory transition the
// record described unapplied.

// walMaxRecord bounds a single record's payload. Real journal records are a
// few hundred bytes; the cap keeps a corrupted length field from forcing
// a pathological allocation during replay.
const walMaxRecord = 16 << 20

// walCRC is the Castagnoli table used for record checksums.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrWALBroken reports that a WAL hit an append error it could not roll
// back from (the file may end in a torn frame); the log must be reopened
// (revalidating the tail) or compacted before further appends.
var ErrWALBroken = errors.New("store: wal broken by failed append")

// appendFrame appends payload's wire frame to b.
func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, walCRC))
	return append(b, payload...)
}

// replayFrames reads WAL frames from r, calling fn for each intact record
// in order. It returns the byte length of the valid prefix and the
// number of records in it. Reading stops at the first truncated, oversized
// or checksum-failing frame: a torn tail is the expected crash artifact,
// not corruption worth failing over. A read error from r ends it like EOF.
func replayFrames(r io.Reader, fn func(payload []byte)) (validLen int64, n int) {
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return validLen, n // clean EOF or torn header: stop at the valid prefix
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		if size > walMaxRecord {
			return validLen, n
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return validLen, n // torn payload
		}
		if crc32.Checksum(payload, walCRC) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return validLen, n
		}
		fn(payload)
		validLen += int64(len(hdr)) + int64(size)
		n++
	}
}

// walHooks intercepts a WAL's write path; it exists purely as a seam for
// fault-injection tests (short writes, append errors, crash points
// between a frame hitting the file and the caller applying it). Nil
// fields mean default behavior.
type walHooks struct {
	// writeFrame, if set, replaces every frame write+sync: an append's
	// frame into the log, a compaction's frames into its temp file.
	// Returning an error (after optionally writing part of the frame to f)
	// simulates a failed or torn write; an append then tries to truncate
	// the partial frame away, exactly as it would after a real short write.
	writeFrame func(f *os.File, frame []byte) error
}

// WAL is an append-only, checksummed, fsync-per-record log. It is not
// internally locked: its owner serializes Append, Compact and Stats under
// the mutex that guards the state the log mirrors, which also keeps the
// log's order identical to the in-memory transitions.
type WAL struct {
	path   string
	f      *os.File
	size   int64 // bytes of intact frames on disk
	recs   int   // records in the file: replayed or compacted, plus appended since
	hooks  *walHooks
	broken bool
	closed bool
	stats  WALStats
}

// WALStats is a log's size and activity since it was opened.
type WALStats struct {
	Durable     bool  `json:"durable"` // false only for a nil (in-memory) log
	Bytes       int64 `json:"bytes"`   // intact frames on disk
	Appends     int64 `json:"appends"`
	Errors      int64 `json:"errors"` // failed appends and compactions
	Compactions int64 `json:"compactions"`
}

// OpenWAL opens (creating if needed) the log at path for appending: it is
// ReplayWAL with nothing to replay into.
func OpenWAL(path string) (*WAL, error) {
	w, _, err := ReplayWAL(path, func([]byte) {})
	return w, err
}

// ReplayWAL opens (creating it and its directory if needed) the log at
// path, delivering every intact record to fn in order in the same single
// pass that finds the valid prefix. The torn tail a crash may leave after
// it is truncated away, so appends start at a record boundary; dropped is
// its byte length.
func ReplayWAL(path string, fn func(payload []byte)) (w *WAL, dropped int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	valid, records := replayFrames(bufio.NewReader(f), fn)
	fi, err := f.Stat()
	if err == nil && fi.Size() > valid {
		err = f.Truncate(valid)
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("store: opening wal: %w", err)
	}
	return &WAL{path: path, f: f, size: valid, recs: records}, fi.Size() - valid, nil
}

func (w *WAL) off() bool { return w == nil || w.closed }

// Records is the number of records in the open log: replayed or compacted,
// plus appended since (0 for a nil or closed log).
func (w *WAL) Records() int {
	if w.off() {
		return 0
	}
	return w.recs
}

// Append durably adds one record: the frame is written and fsynced before
// Append returns nil, so an acknowledged record survives an immediate crash.
// If the write fails partway, Append rolls the file back to the last
// intact frame; if even that fails the WAL is broken and every later
// append returns ErrWALBroken.
func (w *WAL) Append(payload []byte) error {
	if w.off() {
		return nil
	}
	if err := w.append(payload); err != nil {
		w.stats.Errors++
		return err
	}
	w.stats.Appends++
	w.recs++
	return nil
}

func (w *WAL) append(payload []byte) error {
	if w.broken {
		return ErrWALBroken
	}
	// Fault seam: an injected failure surfaces before any bytes land, so
	// the log stays intact (mirrors a full disk rejecting the write).
	if err := fault.Inject("store.wal.append"); err != nil {
		return err
	}
	frame := appendFrame(nil, payload)
	err := w.writeFrame(w.f, frame)
	if err == nil {
		w.size += int64(len(frame))
		return nil
	}
	// Roll back whatever partial frame landed so the next append does not
	// bury later records behind garbage the replay would stop at.
	if terr := w.f.Truncate(w.size); terr != nil {
		w.broken = true
		return fmt.Errorf("store: wal append failed (%v) and rollback failed: %w", err, ErrWALBroken)
	}
	if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
		w.broken = true
		return fmt.Errorf("store: wal append failed (%v) and reseek failed: %w", err, ErrWALBroken)
	}
	return fmt.Errorf("store: wal append: %w", err)
}

func (w *WAL) writeFrame(f *os.File, frame []byte) error {
	if w.hooks != nil && w.hooks.writeFrame != nil {
		return w.hooks.writeFrame(f, frame)
	}
	if _, err := f.Write(frame); err != nil {
		return err
	}
	return f.Sync()
}

// Compact atomically replaces the log's contents with payloads, one record
// each, and continues appending after them. It also mends a broken log.
func (w *WAL) Compact(payloads [][]byte) error {
	if w.off() {
		return nil
	}
	if err := w.rewrite(payloads); err != nil {
		w.stats.Errors++
		return err
	}
	w.stats.Compactions++
	return nil
}

func (w *WAL) rewrite(payloads [][]byte) error {
	var frames []byte
	for _, p := range payloads {
		frames = appendFrame(frames, p)
	}
	tmp, err := os.CreateTemp(filepath.Dir(w.path), ".put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.writeFrame(tmp, frames); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing wal: %w", err)
	}
	published, err := publish(tmp, []string{filepath.Base(w.path)}, false, nil)
	if len(published) == 0 {
		return err // the old log stands
	}
	// The rename happened, so the new file is the log either way: switch to
	// it, then report a directory-fsync failure (publish's "report rather
	// than pretend durability"): the caller must not treat the compaction
	// as committed, as a crash could resurface the old log.
	f, oerr := os.OpenFile(w.path, os.O_RDWR, 0)
	if oerr == nil {
		_, oerr = f.Seek(0, io.SeekEnd)
	}
	w.f.Close()
	w.f, w.size, w.recs, w.broken = f, int64(len(frames)), len(payloads), oerr != nil
	if oerr != nil {
		return fmt.Errorf("store: reopening compacted wal: %w", oerr)
	}
	return err
}

// Stats returns the log's size and activity counters.
func (w *WAL) Stats() WALStats {
	if w == nil {
		return WALStats{}
	}
	s := w.stats
	s.Durable, s.Bytes = true, w.size
	return s
}

// Close stops the log and releases the file; the log stays on disk for the
// next ReplayWAL. Close is idempotent.
func (w *WAL) Close() error {
	if w.off() {
		return nil
	}
	w.closed = true
	return w.f.Close()
}
