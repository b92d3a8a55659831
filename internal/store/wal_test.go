package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
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
	valid, n, err := replayFrames(f, func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("replaying %s: %v", path, err)
	}
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
	w, n, dropped, err := openWAL(filepath.Join(t.TempDir(), "nope.wal"), nil)
	if err != nil || w.size != 0 || n != 0 || dropped != 0 {
		t.Fatalf("missing file: size %d n %d dropped %d err %v, want an empty log", w.size, n, dropped, err)
	}
	w.Close()
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
	if err := w.rewrite([][]byte{[]byte("live-a"), []byte("live-b")}); err != nil {
		t.Fatal(err)
	}
	// The handle keeps working against the new file.
	if err := w.Append([]byte("post")); err != nil {
		t.Fatal(err)
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
