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
	"time"

	"barrierpoint/internal/fault"
)

// This file is the store's write-ahead-log layer: an append-only file of
// length+checksum framed byte records, fsynced per append, whose open-time
// validation truncates the torn frame a crash may leave. Clients use it
// through the typed Journal in journal.go, which documents the frame
// format, compaction and failure semantics once for every log in the
// repository.

// walMaxRecord bounds a single record's payload. Real journal records are a
// few hundred bytes; the cap keeps a corrupted length field from forcing
// a pathological allocation during replay.
const walMaxRecord = 16 << 20

// walCRC is the Castagnoli table used for record checksums.
var walCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrWALBroken reports that a WAL hit an append error it could not roll
// back from (the file may end in a torn frame); the log must be reopened
// (revalidating the tail) before further appends.
var ErrWALBroken = errors.New("store: wal broken by failed append")

// walFrame encodes one record into its wire frame.
func walFrame(payload []byte) []byte {
	f := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(f[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[4:8], crc32.Checksum(payload, walCRC))
	copy(f[8:], payload)
	return f
}

// replayFrames reads WAL frames from r, calling fn for each intact record
// in order. It returns the byte length of the valid prefix and the number
// of records delivered. Reading stops — without error — at the first
// truncated, oversized or checksum-failing frame: a torn tail is the
// expected crash artifact, not corruption worth failing over. An error
// from fn aborts the replay and is returned; one from r ends it like EOF.
func replayFrames(r io.Reader, fn func(rec []byte) error) (validLen int64, n int, err error) {
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return validLen, n, nil // clean EOF or torn header: stop at the valid prefix
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size > walMaxRecord {
			return validLen, n, nil
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return validLen, n, nil // torn payload
		}
		if crc32.Checksum(payload, walCRC) != sum {
			return validLen, n, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return validLen, n, err
			}
		}
		validLen += int64(len(hdr)) + int64(size)
		n++
	}
}

// walHooks intercepts a WAL's write path; it exists purely as a seam for
// fault-injection tests (short writes, append errors, crash points
// between a frame hitting the file and the caller applying it). Nil
// fields mean default behavior.
type walHooks struct {
	// writeFrame, if set, replaces the frame write+sync. Returning an
	// error (after optionally writing part of the frame to f) simulates a
	// failed or torn append; the WAL then tries to truncate the partial
	// frame away, exactly as it would after a real short write.
	writeFrame func(f *os.File, frame []byte) error
}

// WAL is an append-only, checksummed, fsync-per-record log. Appends are
// not internally locked — callers (the farm queue, the job manager)
// serialize them under their own mutex, which also keeps the log ordered
// identically to the in-memory state transitions it journals.
type WAL struct {
	path   string
	f      *os.File
	size   int64 // bytes of intact frames on disk
	hooks  *walHooks
	broken bool
	// observer, when set (Journal.SetObserver), receives the wall-clock
	// duration of each durable operation: op "append" per Append, "rewrite"
	// per Rewrite (compaction). Telemetry only; it runs after the
	// operation's outcome is decided.
	observer func(op string, d time.Duration)
}

func (w *WAL) observe(op string, t0 time.Time) {
	if w.observer != nil {
		w.observer(op, time.Since(t0))
	}
}

// OpenWAL opens (creating if needed) the log at path for appending. Any
// torn frame left by a crash is truncated away first, so appends always
// start at a record boundary. The parent directory is created if missing.
func OpenWAL(path string) (*WAL, error) {
	w, _, _, err := openWAL(path, nil)
	return w, err
}

// openWAL is OpenWAL delivering every intact record to fn on the way: one
// pass over the file both replays it and finds the valid prefix. It also
// returns the number of records delivered and the byte length of the torn
// tail it truncated away.
func openWAL(path string, fn func(rec []byte) error) (w *WAL, records int, dropped int64, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, 0, 0, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: %w", err)
	}
	fail := func(err error) (*WAL, int, int64, error) {
		f.Close()
		return nil, 0, 0, err
	}
	valid, records, err := replayFrames(bufio.NewReader(f), fn)
	if err != nil {
		return fail(err)
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	if fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			return fail(fmt.Errorf("store: truncating torn wal tail: %w", err))
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	return &WAL{path: path, f: f, size: valid}, records, fi.Size() - valid, nil
}

// Append durably adds one record: the frame is written and fsynced before
// Append returns, so an acknowledged record survives an immediate crash.
// If the write fails partway, Append rolls the file back to the last
// intact frame; if even that fails the WAL is marked broken and every
// later append returns ErrWALBroken.
func (w *WAL) Append(payload []byte) error {
	if w.broken {
		return ErrWALBroken
	}
	// Fault seam: an injected failure surfaces before any bytes land, so
	// the log stays intact (mirrors a full disk rejecting the write).
	if err := fault.Inject("store.wal.append"); err != nil {
		return err
	}
	defer w.observe("append", time.Now())
	frame := walFrame(payload)
	err := w.writeFrame(frame)
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

func (w *WAL) writeFrame(frame []byte) error {
	if w.hooks != nil && w.hooks.writeFrame != nil {
		return w.hooks.writeFrame(w.f, frame)
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	return w.f.Sync()
}

// rewrite atomically replaces the log's contents with the given records:
// they are framed into a temp file in the same directory, fsynced, and
// renamed over the log (the store-wide atomic-rewrite pattern), then the
// WAL continues appending to the new file. This is the compaction
// primitive — a crash at any point leaves either the old log or the new
// one, never a mix.
func (w *WAL) rewrite(payloads [][]byte) error {
	defer w.observe("rewrite", time.Now())
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, ".wal-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var size int64
	for _, p := range payloads {
		frame := walFrame(p)
		if _, err := tmp.Write(frame); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: writing wal: %w", err)
		}
		size += int64(len(frame))
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	serr := syncDir(dir)
	// The rename happened, so the new file is the log either way: swap the
	// handles first, then report a directory-fsync failure. The records are
	// intact and synced in the new file (appends may continue), but the
	// rename itself is not yet known durable — a crash could resurface the
	// pre-compaction log — so the caller must not treat the compaction as
	// committed. Same "report rather than pretend durability" contract as
	// publish.
	old := w.f
	w.f = tmp
	w.size = size
	w.broken = false
	old.Close()
	if _, err := w.f.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if serr != nil {
		return fmt.Errorf("store: syncing wal dir: %w", serr)
	}
	return nil
}

// Close releases the file handle. The log itself stays on disk — that is
// the point — and can be reopened with OpenWAL.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
