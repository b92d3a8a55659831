package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// replayAll replays the log at path into a slice of record payloads.
func replayAll(t *testing.T, path string) ([][]byte, int64) {
	t.Helper()
	var recs [][]byte
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	valid, n := replayFrames(f, func(rec []byte) { recs = append(recs, rec) })
	if n != len(recs) {
		t.Fatalf("replay reported %d records, delivered %d", n, len(recs))
	}
	return recs, valid
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf(`{"op":"test","n":%d}`, i))
		if i == 7 {
			rec = nil // zero-length payloads must round-trip too
		}
		if err := w.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, valid := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if valid != fi.Size() {
		t.Errorf("valid prefix %d != file size %d (no torn tail was written)", valid, fi.Size())
	}
}

func TestWALTornTailTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	cleanSize := w.size
	w.Close()

	// Simulate a crash mid-append: a partial frame after the good records.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Replay sees only the valid prefix...
	recs, valid := replayAll(t, path)
	if len(recs) != 3 || valid != cleanSize {
		t.Fatalf("replay after torn tail: %d records, valid %d; want 3, %d", len(recs), valid, cleanSize)
	}
	// ...and reopening truncates the tail away so appends continue cleanly.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if w2.size != cleanSize {
		t.Fatalf("reopened size %d, want %d", w2.size, cleanSize)
	}
	if err := w2.Append([]byte("rec-3")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs, _ = replayAll(t, path)
	if len(recs) != 4 || string(recs[3]) != "rec-3" {
		t.Fatalf("after reopen+append: %d records (last %q), want 4 ending in rec-3", len(recs), recs[len(recs)-1])
	}
}

func TestWALReplayStopsAtCorruptRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(8 + len("record-0"))

	// Flip a payload byte of record 2: replay keeps records 0-1 only.
	bad := append([]byte(nil), data...)
	bad[2*frame+8] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, valid := replayAll(t, path)
	if len(recs) != 2 || valid != 2*frame {
		t.Fatalf("checksum damage: %d records, valid %d; want 2, %d", len(recs), valid, 2*frame)
	}

	// An absurd length field must stop replay, not allocate 4 GiB.
	bad = append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[3*frame:], 0xfffffff0)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, _ = replayAll(t, path)
	if len(recs) != 3 {
		t.Fatalf("oversized length: %d records, want 3", len(recs))
	}
}

func TestOpenWALMissingFile(t *testing.T) {
	w, dropped, err := ReplayWAL(filepath.Join(t.TempDir(), "sub", "nope.wal"), func([]byte) {})
	if err != nil || w.Records() != 0 || dropped != 0 || w.Stats() != (WALStats{Durable: true}) {
		t.Fatalf("missing file: %d records, %d dropped, stats %+v, err %v; want an empty log", w.Records(), dropped, w.Stats(), err)
	}
	w.Close()
}

// TestWALReplayEveryPrefix cuts a log at every byte offset — every frame
// boundary and every position inside a frame — and checks that reopening
// replays exactly the records wholly before the cut, reports the rest as
// dropped, and appends cleanly after it.
func TestWALReplayEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(filepath.Join(dir, "full.wal"))
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{0}
	for i := 0; i < 6; i++ {
		if err := w.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, w.Stats().Bytes)
	}
	w.Close()
	raw, err := os.ReadFile(filepath.Join(dir, "full.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(raw); cut++ {
		whole := 0
		for whole < 6 && bounds[whole+1] <= int64(cut) {
			whole++
		}
		path := filepath.Join(dir, fmt.Sprintf("cut-%04d.wal", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []string
		w, dropped, err := ReplayWAL(path, func(p []byte) { got = append(got, string(p)) })
		if err != nil || w.Records() != whole || len(got) != whole || dropped != int64(cut)-bounds[whole] {
			t.Fatalf("cut %d: replayed %q (%d records), dropped %d, err %v; want %d records", cut, got, w.Records(), dropped, err, whole)
		}
		if err := w.Append([]byte("after")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		w.Close()
		if recs, _ := replayAll(t, path); len(recs) != whole+1 || string(recs[whole]) != "after" {
			t.Fatalf("cut %d: after append replayed %q", cut, recs)
		}
	}
}

func TestWALRewriteCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact([][]byte{[]byte("live-a"), []byte("live-b")}); err != nil {
		t.Fatal(err)
	}
	// The handle keeps working against the new file.
	if err := w.Append([]byte("post")); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); w.Records() != 3 || st.Appends != 11 || st.Compactions != 1 || st.Errors != 0 {
		t.Fatalf("%d records, stats %+v after compaction", w.Records(), st)
	}
	w.Close()
	recs, _ := replayAll(t, path)
	want := []string{"live-a", "live-b", "post"}
	if len(recs) != len(want) {
		t.Fatalf("after rewrite: %d records, want %d", len(recs), len(want))
	}
	for i, s := range want {
		if string(recs[i]) != s {
			t.Errorf("record %d = %q, want %q", i, recs[i], s)
		}
	}
	// No stray temp files.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != filepath.Base(path) {
			t.Errorf("leftover file %s after rewrite", e.Name())
		}
	}
}

// TestWALCompactionCrashLeavesNoLitter: a crash mid-compaction, after the
// snapshot is written but before it is published, leaves the old log and
// the compaction's temp file beside it. The temp is the store's kind, so
// the next Open sweeps it once aged, and the log replays as before.
func TestWALCompactionCrashLeavesNoLitter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("old")); err != nil {
		t.Fatal(err)
	}
	var temp string
	var frames []byte
	w.hooks = &walHooks{writeFrame: func(f *os.File, frame []byte) error {
		temp, frames = f.Name(), frame
		return errors.New("crash before publish")
	}}
	if err := w.Compact([][]byte{[]byte("live")}); err == nil || temp == "" {
		t.Fatalf("compaction through a crashing seam: %v, temp %q", err, temp)
	}
	w.Close()
	// What the crash leaves (Compact cleans up after a mere error).
	if err := os.WriteFile(temp, frames, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(temp, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(temp); !os.IsNotExist(err) {
		t.Fatalf("compaction temp %s survived the sweep", filepath.Base(temp))
	}
	if recs, _ := replayAll(t, path); len(recs) != 1 || string(recs[0]) != "old" {
		t.Fatalf("log after the sweep replays %q, want [old]", recs)
	}
}

// TestWALClosedAndNilRecordNothing pins the no-second-code-path contract: a
// closed log and a nil one accept every call and write nothing.
func TestWALClosedAndNilRecordNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("kept")); err != nil {
		t.Fatal(err)
	}
	before := w.Stats()
	for i, w := range []*WAL{w, w, nil} {
		if err := w.Close(); err != nil {
			t.Errorf("close %d: %v", i, err)
		}
		if err := w.Append([]byte("lost")); err != nil {
			t.Errorf("append %d after close: %v, want nil no-op", i, err)
		}
		if err := w.Compact(nil); err != nil || w.Records() != 0 {
			t.Errorf("compact %d after close: %v, %d records", i, err, w.Records())
		}
	}
	if after := w.Stats(); after != before || (*WAL)(nil).Stats() != (WALStats{}) {
		t.Errorf("stats moved after close: %+v -> %+v", before, after)
	}
	if recs, _ := replayAll(t, path); len(recs) != 1 || string(recs[0]) != "kept" {
		t.Fatalf("closed log wrote to disk: %q", recs)
	}
}
