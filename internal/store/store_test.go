package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// recordBytes records a small workload trace into memory.
func recordBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	prog := workload.New("npb-is", 8, workload.WithScale(0.05))
	if err := tracefile.Record(&buf, prog); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkPutTrace measures a re-put of npb-ft x1 (about 5 MB, 8 threads)
// from a file, the shape of ImportTrace and of a farm worker's trace fetch:
// the whole-file hash and temp-file write, and the copy discarded unsynced.
func BenchmarkPutTrace(b *testing.B) {
	path := filepath.Join(b.TempDir(), "npb-ft.bptrace")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := tracefile.Record(f, workload.New("npb-ft", 8, workload.WithScale(1))); err != nil {
		b.Fatal(err)
	}
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := st.ImportTrace(path); err != nil {
		b.Fatal(err)
	}
	if fi, err := f.Stat(); err == nil {
		b.SetBytes(fi.Size())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		if _, existed, err := st.PutTrace(f); err != nil || !existed {
			b.Fatalf("re-put: existed=%v err=%v", existed, err)
		}
	}
}

func TestPutTraceContentAddressing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t)

	key, existed, err := st.PutTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Error("first put reported existed")
	}
	if !ValidKey(key) {
		t.Fatalf("invalid key %q", key)
	}
	wantKey, err := ReaderKey(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if key != wantKey {
		t.Errorf("PutTrace key %s != ReaderKey %s", key, wantKey)
	}

	// Byte-identical re-upload dedupes.
	key2, existed, err := st.PutTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if key2 != key || !existed {
		t.Errorf("re-put: key %s existed %v, want %s true", key2, existed, key)
	}

	keys, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != key {
		t.Errorf("Traces() = %v, want [%s]", keys, key)
	}

	// The stored bytes round-trip exactly.
	p, err := st.TracePath(key)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("stored trace bytes differ from input")
	}

	f, err := st.OpenTrace(key)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Name() != "npb-is" || f.Threads() != 8 {
		t.Errorf("replayed trace is %s/%d threads", f.Name(), f.Threads())
	}

	// No leftover temp files.
	ents, err := os.ReadDir(filepath.Join(st.Root(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".put-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestImportTrace(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t)
	path := filepath.Join(t.TempDir(), "is.bptrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	key, existed, err := st.ImportTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Error("fresh import reported existed")
	}
	wantKey, err := ReaderKey(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if key != wantKey {
		t.Errorf("ImportTrace key %s != ReaderKey %s", key, wantKey)
	}
	if !st.HasTrace(key) {
		t.Error("HasTrace false after import")
	}
}

func TestArtifacts(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(recordBytes(t)))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := st.GetArtifact(key, "selection-x.json"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing artifact: got %v, want ErrNotFound", err)
	}
	if st.HasArtifact(key, "selection-x.json") {
		t.Error("HasArtifact true before put")
	}

	want := []byte(`{"k":3}`)
	if err := st.PutArtifact(key, "selection-x.json", want); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetArtifact(key, "selection-x.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("artifact round-trip: got %q want %q", got, want)
	}

	if err := st.PutArtifact(key, "estimate-y.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	names, err := st.Artifacts(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "estimate-y.json" || names[1] != "selection-x.json" {
		t.Errorf("Artifacts() = %v", names)
	}

	// Invalidation: removing one artifact leaves the other, and removing
	// a missing artifact is a no-op.
	if err := st.RemoveArtifact(key, "estimate-y.json"); err != nil {
		t.Fatal(err)
	}
	if st.HasArtifact(key, "estimate-y.json") || !st.HasArtifact(key, "selection-x.json") {
		t.Error("RemoveArtifact removed the wrong artifact")
	}
	if err := st.RemoveArtifact(key, "estimate-y.json"); err != nil {
		t.Errorf("removing a missing artifact: %v", err)
	}

	// Removing the trace removes its artifacts too.
	if err := st.RemoveTrace(key); err != nil {
		t.Fatal(err)
	}
	if st.HasTrace(key) || st.HasArtifact(key, "selection-x.json") {
		t.Error("RemoveTrace left trace or artifacts behind")
	}
}

func TestMalformedKeysAndNames(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "abc", "../../etc/passwd", strings.Repeat("Z", 64)} {
		if st.HasTrace(k) {
			t.Errorf("HasTrace(%q) = true", k)
		}
		if _, err := st.TracePath(k); err == nil {
			t.Errorf("TracePath(%q) succeeded", k)
		}
	}
	key := strings.Repeat("a", 64)
	for _, name := range []string{"", ".hidden", "../escape", "a/b", "a b"} {
		if err := st.PutArtifact(key, name, nil); err == nil {
			t.Errorf("PutArtifact(%q) succeeded", name)
		}
		if _, err := st.GetArtifact(key, name); err == nil {
			t.Errorf("GetArtifact(%q) succeeded", name)
		}
	}
}

// TestConcurrentPuts races identical and distinct writers; every put must
// land complete (atomic rename), with identical content stored once.
func TestConcurrentPuts(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := recordBytes(t)
	var wg sync.WaitGroup
	keys := make([]string, 8)
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, _, err := st.PutTrace(bytes.NewReader(data))
			if err != nil {
				t.Error(err)
				return
			}
			keys[i] = k
		}(i)
	}
	wg.Wait()
	for _, k := range keys[1:] {
		if k != keys[0] {
			t.Fatalf("diverging keys: %v", keys)
		}
	}
	all, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Errorf("stored %d traces, want 1", len(all))
	}

	var awg sync.WaitGroup
	for i := 0; i < 8; i++ {
		awg.Add(1)
		go func() {
			defer awg.Done()
			if err := st.PutArtifact(keys[0], "sel.json", []byte(`{"v":1}`)); err != nil {
				t.Error(err)
			}
		}()
	}
	awg.Wait()
	got, err := st.GetArtifact(keys[0], "sel.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"v":1}` {
		t.Errorf("artifact torn: %q", got)
	}
}

func TestCampaignManifests(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Empty store: no campaigns, lookups miss with ErrNotFound.
	if names, err := st.Campaigns(); err != nil || len(names) != 0 {
		t.Fatalf("Campaigns() on empty store = %v, %v", names, err)
	}
	if _, err := st.GetCampaign("sweep-abc.json"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetCampaign miss = %v, want ErrNotFound", err)
	}
	// Put / get / overwrite round-trips.
	if err := st.PutCampaign("sweep-abc.json", []byte(`{"cells":{}}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign("sweep-abc.json", []byte(`{"cells":{"a":{}}}`)); err != nil {
		t.Fatal(err)
	}
	b, err := st.GetCampaign("sweep-abc.json")
	if err != nil || string(b) != `{"cells":{"a":{}}}` {
		t.Fatalf("GetCampaign = %q, %v", b, err)
	}
	if err := st.PutCampaign("other.json", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	names, err := st.Campaigns()
	if err != nil || strings.Join(names, " ") != "other.json sweep-abc.json" {
		t.Fatalf("Campaigns() = %v, %v", names, err)
	}
	// Malformed names (path escapes) are rejected both ways.
	for _, bad := range []string{"", "../evil", "a/b", ".hidden"} {
		if err := st.PutCampaign(bad, []byte("x")); err == nil {
			t.Errorf("PutCampaign(%q) accepted", bad)
		}
		if _, err := st.GetCampaign(bad); err == nil {
			t.Errorf("GetCampaign(%q) accepted", bad)
		}
	}
}
