package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
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
// holds — a re-upload through PutTrace or a TraceWriter, a profile writer
// that lost the race after its HasProfile check — reports existed, leaves the
// stored bytes as they were and leaves no temp file behind.
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
	// PutProfile returns before it writes when the entry is there; the
	// writer that saw it missing and then lost the race gets here.
	existed, err = writeDurable(filepath.Join(st.Root(), "profiles"), digest+".rd1", []byte("a loser's bytes"), true)
	if err != nil || !existed {
		t.Fatalf("losing profile publish: existed=%v err=%v", existed, err)
	}
	if got, err := st.GetProfile(digest, "rd1"); err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("profile after losing publish: %q, %v", got, err)
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
