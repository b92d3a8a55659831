package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// TestConcurrentIdenticalPutTrace hammers the Stat/Rename dedup race: many
// goroutines upload byte-identical traces at once. Exactly one key must
// come out, every call must succeed, the stored bytes must be intact, and
// no temp files may survive. (Two writers can both miss the Stat and race
// the Rename; rename-over-same-content is safe because the bytes are
// identical, but every path must still clean up its temp.)
func TestConcurrentIdenticalPutTrace(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t)

	const n = 16
	keys := make([]string, n)
	errs := make([]error, n)
	existed := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys[i], existed[i], errs[i] = st.PutTrace(bytes.NewReader(data))
		}(i)
	}
	wg.Wait()
	created := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("put %d: %v", i, errs[i])
		}
		if keys[i] != keys[0] {
			t.Fatalf("put %d produced key %s, put 0 produced %s", i, keys[i], keys[0])
		}
		if !existed[i] {
			created++
		}
	}
	// Whether a loser found the entry before syncing its copy or lost the
	// link after, exactly one publisher created it.
	if created != 1 {
		t.Fatalf("%d writers reported existed=false, want exactly 1", created)
	}
	stored, err := os.ReadFile(st.tracePath(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, data) {
		t.Fatal("stored trace differs from uploaded bytes")
	}
	traces, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("store holds %d traces, want 1", len(traces))
	}
	assertNoTemps(t, st)
}

// TestRepublishExisting: publishing content a create-once entry already
// holds — a re-upload through PutTrace or a TraceWriter, a profile batch
// from a writer that lost the race after its HasProfile check — reports
// existed, leaves the stored bytes as they were and leaves no temp file
// behind.
func TestRepublishExisting(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t)
	key, existed, err := st.PutTrace(bytes.NewReader(data))
	if err != nil || existed {
		t.Fatalf("first put: existed=%v err=%v", existed, err)
	}
	if k, existed, err := st.PutTrace(bytes.NewReader(data)); err != nil || !existed || k != key {
		t.Fatalf("re-PutTrace: key %s existed=%v err=%v, want %s true", k, existed, err, key)
	}
	w, err := st.NewTraceWriter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if k, existed, err := w.Commit(); err != nil || !existed || k != key {
		t.Fatalf("re-Commit: key %s existed=%v err=%v, want %s true", k, existed, err, key)
	}
	if stored, err := os.ReadFile(st.tracePath(key)); err != nil || !bytes.Equal(stored, data) {
		t.Fatalf("stored trace changed by re-publishing: %v", err)
	}

	digest, blob := strings.Repeat("ef", 32), []byte("profile bytes")
	if existed, err := st.PutProfile(digest, "rd1", blob); err != nil || existed {
		t.Fatalf("first profile put: existed=%v err=%v", existed, err)
	}
	// A batch that lost the race for one of its digests creates only the
	// others, and the stored entry keeps its creator's bytes.
	other := strings.Repeat("fe", 32)
	created, err := st.PutProfiles("rd1", map[string][]byte{digest: []byte("a loser's bytes"), other: []byte("new")})
	if err != nil || len(created) != 1 || created[0] != other {
		t.Fatalf("losing profile batch: created %v, err %v; want [%s]", created, err, other)
	}
	if got, err := st.GetProfile(digest, "rd1"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("profile after losing publish: %q, %v", got, err)
	}
	if got, err := st.GetProfile(other, "rd1"); err != nil || string(got) != "new" {
		t.Fatalf("profile the losing batch created: %q, %v", got, err)
	}
	assertNoTemps(t, st)
}

// assertNoTemps fails if any .put-* temp file remains anywhere under the
// store's content directories.
func assertNoTemps(t *testing.T, st *Store) {
	t.Helper()
	err := filepath.WalkDir(st.Root(), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasPrefix(d.Name(), ".put-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashBetweenTempAndRename simulates a writer killed after streaming
// bytes into its temp file but before the rename: the half-written key must
// be invisible to every read API, a re-upload of the same content must
// succeed as a fresh store, and reopening the store must eventually sweep
// the orphan.
func TestCrashBetweenTempAndRename(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t)

	// A TraceWriter that never reaches Commit is exactly the crash state:
	// bytes in `.put-*`, no rename. Drop it on the floor.
	w, err := st.NewTraceWriter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	tempName := w.tmp.Name()

	key, err := ReaderKey(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st.HasTrace(key) {
		t.Fatal("half-written trace visible via HasTrace")
	}
	if _, err := st.TracePath(key); err == nil {
		t.Fatal("half-written trace visible via TracePath")
	}
	traces, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Fatalf("Traces lists %d entries for a store with only a crashed write", len(traces))
	}

	// The next writer (post-crash restart) stores the same content cleanly.
	k2, existed, err := st.PutTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if k2 != key || existed {
		t.Fatalf("post-crash put: key %s existed %v, want %s false", k2, existed, key)
	}

	// Reopen: a young orphan survives the sweep (it might be a live
	// writer), an old one is reclaimed.
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tempName); err != nil {
		t.Fatal("young temp file swept inside the grace period")
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(tempName, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tempName); !os.IsNotExist(err) {
		t.Fatal("aged orphan temp not swept on Open")
	}
	// The committed trace is untouched by the sweep.
	if !st.HasTrace(key) {
		t.Fatal("sweep removed a committed trace")
	}
}

func TestTraceWriterAbort(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.NewTraceWriter()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("partial upload")); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	w.Abort() // idempotent
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write accepted data after Abort")
	}
	if _, _, err := w.Commit(); err == nil {
		t.Fatal("Commit succeeded after Abort")
	}
	assertNoTemps(t, st)
	traces, _ := st.Traces()
	if len(traces) != 0 {
		t.Fatal("aborted write left a trace behind")
	}
}

// chunkReader returns at most n bytes per Read (any number when n is 0), as
// a response body does.
type chunkReader struct {
	r *bytes.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if c.n > 0 && len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// TestTraceWriterKeyIsSHA256: the key is the SHA-256 of every byte however
// the writes, or ReadFrom's reads, split across the writer's 64 KiB buffers,
// and the stored file holds exactly those bytes.
func TestTraceWriterKeyIsSHA256(t *testing.T) {
	const buf = 64 << 10
	data := make([]byte, 3*buf+5)
	for i := range data {
		data[i] = byte(i * 7 / 3)
	}
	for _, tc := range []struct {
		name   string
		size   int
		chunks int  // per Write or Read; 0 writes or reads everything at once
		read   bool // ReadFrom in place of Writes
	}{
		{"1B", 1, 0, false},
		{"7B", 7, 0, false},
		{"64KiB", buf, 0, false},
		{"64KiB+1", buf + 1, 0, false},
		{"one-write-over-buffers", len(data), 0, false},
		{"odd-writes", len(data), 4099, false},
		{"read-empty", 0, 0, true},
		{"read-64KiB", buf, 0, true},
		{"read-over-buffers", len(data), 0, true},
		{"odd-reads", len(data), 4099, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			want := data[:tc.size]
			w, err := st.NewTraceWriter()
			if err != nil {
				t.Fatal(err)
			}
			if tc.read {
				if n, err := w.ReadFrom(chunkReader{bytes.NewReader(want), tc.chunks}); err != nil || n != int64(len(want)) {
					t.Fatalf("ReadFrom = %d, %v; want %d, nil", n, err, len(want))
				}
			}
			for rest := want; len(rest) > 0 && !tc.read; {
				n := len(rest)
				if tc.chunks > 0 {
					n = min(n, tc.chunks)
				}
				if got, err := w.Write(rest[:n]); err != nil || got != n {
					t.Fatalf("Write = %d, %v; want %d, nil", got, err, n)
				}
				rest = rest[n:]
			}
			key, existed, err := w.Commit()
			if err != nil || existed {
				t.Fatalf("Commit = %s, %v, %v", key, existed, err)
			}
			sum := sha256.Sum256(want)
			if key != hex.EncodeToString(sum[:]) {
				t.Fatalf("key %s, want the SHA-256 of the bytes %x", key, sum)
			}
			if stored, err := os.ReadFile(st.tracePath(key)); err != nil || !bytes.Equal(stored, want) {
				t.Fatalf("stored trace differs from the written bytes (%v)", err)
			}
			assertNoTemps(t, st)
		})
	}
}

// TestTraceWriterStickyWriteError: a failed write of the writer's goroutine
// fails the next Write, ReadFrom and Commit, and nothing is published.
func TestTraceWriterStickyWriteError(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := st.NewTraceWriter()
	if err != nil {
		t.Fatal(err)
	}
	w.tmp.Close()
	// With two buffers queued, the fourth Write can only be accepted once
	// the first buffer's write has failed, so the fifth sees the error.
	chunk := make([]byte, 64<<10)
	var werr error
	for i := 0; i < 5 && werr == nil; i++ {
		_, werr = w.Write(chunk)
	}
	if werr == nil {
		t.Fatal("five Writes into a closed temp file all succeeded")
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write error not sticky")
	}
	if key, _, err := w.Commit(); err == nil {
		t.Fatalf("Commit published %s after a write error", key)
	}
	w.Abort() // a no-op now
	if traces, _ := st.Traces(); len(traces) != 0 {
		t.Fatalf("store holds %v after a failed write", traces)
	}

	// ReadFrom stops on the write error too, and on its reader's error;
	// PutTrace then publishes nothing.
	w, err = st.NewTraceWriter()
	if err != nil {
		t.Fatal(err)
	}
	w.tmp.Close()
	if _, err := w.ReadFrom(bytes.NewReader(make([]byte, 1<<20))); err == nil {
		t.Fatal("ReadFrom of 1 MiB into a closed temp file succeeded")
	}
	w.Abort()
	readErr := errors.New("connection reset")
	if key, _, err := st.PutTrace(io.MultiReader(bytes.NewReader(chunk), iotest.ErrReader(readErr))); !errors.Is(err, readErr) {
		t.Fatalf("PutTrace over a failing reader = %s, %v; want %v", key, err, readErr)
	}
	if traces, _ := st.Traces(); len(traces) != 0 {
		t.Fatalf("store holds %v after a failed read", traces)
	}
	assertNoTemps(t, st)
}

// TestTraceWriterLeavesNoGoroutine: Commit and Abort wait for the writer's
// goroutine, after a clean write and after a failed one.
func TestTraceWriterLeavesNoGoroutine(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 300<<10)
	base := runtime.NumGoroutine()
	for _, end := range []string{"commit", "abort", "abort-after-error"} {
		w, err := st.NewTraceWriter()
		if err != nil {
			t.Fatal(err)
		}
		if end == "abort-after-error" {
			w.tmp.Close()
		}
		w.Write(data)
		if end == "commit" {
			if _, _, err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			w.Abort()
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Fatalf("%s: %d goroutines, %d before the writer", end, n, base)
		}
	}
	assertNoTemps(t, st)
}

func TestProfileCache(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := strings.Repeat("ab", 32)
	blob := []byte("profile bytes")

	if st.HasProfile(digest, "rd1") {
		t.Fatal("empty store has profile")
	}
	if _, err := st.GetProfile(digest, "rd1"); err == nil {
		t.Fatal("GetProfile succeeded on missing entry")
	}
	existed, err := st.PutProfile(digest, "rd1", blob)
	if err != nil || existed {
		t.Fatalf("first put: existed=%v err=%v", existed, err)
	}
	existed, err = st.PutProfile(digest, "rd1", []byte("different bytes, same key"))
	if err != nil || !existed {
		t.Fatalf("second put: existed=%v err=%v", existed, err)
	}
	got, err := st.GetProfile(digest, "rd1")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("GetProfile after dedup: %q, %v", got, err)
	}
	// A different codec version is a distinct entry.
	if st.HasProfile(digest, "rd2") {
		t.Fatal("codec versions share entries")
	}
	ents, err := os.ReadDir(filepath.Join(st.Root(), "profiles"))
	if err != nil || len(ents) != 1 || ents[0].Name() != digest+".rd1" {
		t.Fatalf("profiles directory = %v, %v", ents, err)
	}
	if err := st.RemoveProfile(digest, "rd1"); err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveProfile(digest, "rd1"); err != nil {
		t.Fatal("removing a missing profile errored")
	}
	if st.HasProfile(digest, "rd1") {
		t.Fatal("profile survives RemoveProfile")
	}

	for _, bad := range [][2]string{{"not-a-digest", "rd1"}, {digest, "RD/1"}, {digest, ""}, {digest, "../evil"}} {
		if _, err := st.PutProfile(bad[0], bad[1], blob); err == nil {
			t.Errorf("PutProfile accepted (%q, %q)", bad[0], bad[1])
		}
	}
}

// TestConcurrentPutProfile: concurrent identical profile writes (ingest of
// overlapping traces) must all succeed, leave exactly one entry, and report
// existed=false to exactly one writer — ingest failure cleanup trusts that
// signal to remove only entries it created, so a double-claim would let a
// failed ingest delete a profile a successful one relies on.
func TestConcurrentPutProfile(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := strings.Repeat("cd", 32)
	blob := bytes.Repeat([]byte{0x42}, 1024)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	existed := make([]bool, len(errs))
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			existed[i], errs[i] = st.PutProfile(digest, "rd1", blob)
		}(i)
	}
	wg.Wait()
	created := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		if !existed[i] {
			created++
		}
	}
	if created != 1 {
		t.Fatalf("%d writers reported existed=false, want exactly 1", created)
	}
	got, err := st.GetProfile(digest, "rd1")
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("profile after concurrent puts: %v", err)
	}
	assertNoTemps(t, st)
}
