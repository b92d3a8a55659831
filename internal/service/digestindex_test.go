package service

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

func recordWith(t *testing.T, opts ...tracefile.Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.05)), opts...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// v1Upload is recordWith's program in the legacy version-1 layout, as its last
// writer recorded it: nothing writes v1 any more, uploads of it are still
// accepted.
func v1Upload(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile("../tracefile/testdata/npb-is-x0.05-v1.bptrace")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fileDigests hashes every region of the stored trace: the ground truth an
// index must equal.
func fileDigests(t *testing.T, st *store.Store, key string) []string {
	t.Helper()
	f, err := st.OpenTrace(key)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	digests := make([]string, f.Regions())
	for i := range digests {
		if digests[i], err = f.RegionDigest(i); err != nil {
			t.Fatal(err)
		}
	}
	return digests
}

func indexPath(st *store.Store, key string) string {
	return filepath.Join(st.Root(), "artifacts", key, tracefile.DigestIndexName)
}

// wantIndex fails unless the trace's stored index lists exactly the digests
// its file hashes to.
func wantIndex(t *testing.T, st *store.Store, key string) {
	t.Helper()
	b, err := st.GetArtifact(key, tracefile.DigestIndexName)
	if err != nil {
		t.Fatalf("no digest index: %v", err)
	}
	if want := encodeDigestIndex(fileDigests(t, st, key)); !bytes.Equal(b, want) {
		t.Fatalf("digest index (%d bytes) differs from File.RegionDigest over the stored trace (%d bytes)", len(b), len(want))
	}
}

// TestIngestWritesDigestIndex: a streamed upload leaves an index equal to
// hashing the stored file, only after the commit, once; RemoveTrace takes
// it away with the trace.
func TestIngestWritesDigestIndex(t *testing.T) {
	for name, data := range map[string][]byte{"plain": recordWith(t), "gzip": recordWith(t, tracefile.WithGzip(true))} {
		t.Run(name, func(t *testing.T) {
			m, st := newManager(t)

			// A failed ingest never reaches the commit, so it leaves no index.
			if _, err := m.IngestTrace(bytes.NewReader(data[:len(data)*3/4])); err == nil {
				t.Fatal("truncated ingest succeeded")
			}
			if left, _ := filepath.Glob(filepath.Join(st.Root(), "artifacts", "*", "*")); len(left) != 0 {
				t.Fatalf("failed ingest left artifacts %v", left)
			}

			res, err := m.IngestTrace(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			wantIndex(t, st, res.Key)

			// A dedupe-hit upload finds the index and writes nothing: the
			// file is the same inode, not a renamed replacement.
			before, err := os.Stat(indexPath(st, res.Key))
			if err != nil {
				t.Fatal(err)
			}
			if res2, err := m.IngestTrace(bytes.NewReader(data)); err != nil || !res2.Existed {
				t.Fatalf("re-ingest: %+v, %v", res2, err)
			}
			after, err := os.Stat(indexPath(st, res.Key))
			if err != nil {
				t.Fatal(err)
			}
			if !os.SameFile(before, after) {
				t.Error("dedupe-hit upload rewrote the digest index")
			}

			if err := st.RemoveTrace(res.Key); err != nil {
				t.Fatal(err)
			}
			if st.HasArtifact(res.Key, tracefile.DigestIndexName) {
				t.Error("digest index survived RemoveTrace")
			}
		})
	}
}

// TestFirstAnalysisWritesDigestIndex: a trace that did not stream in (a v1
// upload, a PutTrace/ImportTrace'd file) gets its index from the first
// analysis, and the second analysis hits it.
func TestFirstAnalysisWritesDigestIndex(t *testing.T) {
	cfgA, _ := ConfigFor("", 0)
	cfgB, _ := ConfigFor("", 7)
	store := func(t *testing.T, how string) (*store.Store, string) {
		m, st := newManager(t)
		switch how {
		case "v1-upload":
			res, err := m.IngestTrace(bytes.NewReader(v1Upload(t)))
			if err != nil || res.Streamed {
				t.Fatalf("v1 ingest: %+v, %v", res, err)
			}
			return st, res.Key
		default:
			path := filepath.Join(t.TempDir(), "t.bptrace")
			if err := os.WriteFile(path, recordWith(t), 0o644); err != nil {
				t.Fatal(err)
			}
			key, _, err := st.ImportTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			return st, key
		}
	}
	for _, how := range []string{"v1-upload", "imported"} {
		t.Run(how, func(t *testing.T) {
			st, key := store(t, how)
			if st.HasArtifact(key, tracefile.DigestIndexName) {
				t.Fatal("index exists before any analysis")
			}
			_, _, stats, err := AnalyzeCached(st, key, cfgA, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.IndexHit || stats.Computed != stats.Regions {
				t.Fatalf("first analysis stats %+v, want hashed digests and every region profiled", stats)
			}
			wantIndex(t, st, key)
			_, _, stats, err = AnalyzeCached(st, key, cfgB, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.IndexHit || stats.Computed != 0 {
				t.Fatalf("second analysis stats %+v, want an index hit and nothing profiled", stats)
			}
		})
	}
}

// countingReaderAt counts the reads that reach a trace's bytes.
type countingReaderAt struct {
	io.ReaderAt
	reads atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads.Add(1)
	return c.ReaderAt.ReadAt(p, off)
}

// TestIndexedAnalysisReadsNoTraceBytes: with the index and every profile in
// the store, collecting an analysis's profiles touches the trace file not
// at all once it is open (header and footer); without the index the same
// call reads every chunk.
func TestIndexedAnalysisReadsNoTraceBytes(t *testing.T) {
	data := recordTrace(t)
	m, st := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	ra := &countingReaderAt{ReaderAt: bytes.NewReader(data)}
	f, err := tracefile.NewReader(ra, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	ra.reads.Store(0)
	profiles, stats, err := profilesFor(st, res.Key, f, f)
	if err != nil {
		t.Fatal(err)
	}
	if want := (ProfileStats{Regions: res.Regions, Cached: res.Regions, IndexHit: true}); stats != want || len(profiles) != res.Regions {
		t.Fatalf("stats %+v over %d profiles, want %+v", stats, len(profiles), want)
	}
	if n := ra.reads.Load(); n != 0 {
		t.Errorf("indexed analysis made %d reads of the trace file, want 0", n)
	}

	if err := st.RemoveArtifact(res.Key, tracefile.DigestIndexName); err != nil {
		t.Fatal(err)
	}
	if _, stats, err = profilesFor(st, res.Key, f, f); err != nil || stats.IndexHit || stats.Computed != 0 {
		t.Fatalf("unindexed analysis: stats %+v, err %v", stats, err)
	}
	if n := ra.reads.Load(); n < int64(res.Regions*res.Threads) {
		t.Errorf("unindexed analysis made %d reads, want at least one per chunk (%d)", n, res.Regions*res.Threads)
	}
}

// TestBadDigestIndexIsAMissAndHeals: an index that is not exactly one
// well-formed digest per region changes timing, never a result — the
// analysis hashes the file, selects the same bytes as over a clean store,
// and leaves a correct index for the next one.
func TestBadDigestIndexIsAMissAndHeals(t *testing.T) {
	data := recordTrace(t)
	cfgA, _ := ConfigFor("", 0)
	cfgB, _ := ConfigFor("", 7)
	mClean, stClean := newManager(t)
	clean, err := mClean.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	good, err := stClean.GetArtifact(clean.Key, tracefile.DigestIndexName)
	if err != nil {
		t.Fatal(err)
	}
	var want [2][]byte
	for i, cfg := range []bp.Config{cfgA, cfgB} {
		if want[i], _, _, err = AnalyzeCached(stClean, clean.Key, cfg, nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	upper := bytes.Replace(good, good[:store.KeyLen], []byte(strings.ToUpper(string(good[:store.KeyLen]))), 1)
	if bytes.Equal(upper, good) {
		t.Fatal("first digest has no letter to upper-case") // 1 in 10^13
	}
	noNewline := append([]byte(nil), good...)
	noNewline[store.KeyLen] = 'a'
	for name, bad := range map[string][]byte{
		"empty":             {},
		"truncated":         good[:len(good)-10],
		"one-digest-short":  good[store.KeyLen+1:],
		"one-digest-long":   append(append([]byte(nil), good...), good[:store.KeyLen+1]...),
		"foreign-bytes":     bytes.Repeat([]byte{0xfe}, len(good)),
		"upper-case-digest": upper,
		"run-on-line":       noNewline,
	} {
		t.Run(name, func(t *testing.T) {
			m, st := newManager(t)
			res, err := m.IngestTrace(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.PutArtifact(res.Key, tracefile.DigestIndexName, bad); err != nil {
				t.Fatal(err)
			}
			sel, _, stats, err := AnalyzeCached(st, res.Key, cfgA, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.IndexHit || stats.Computed != 0 {
				t.Errorf("stats %+v over a bad index, want hashed digests and every profile still cached", stats)
			}
			if !bytes.Equal(sel, want[0]) {
				t.Error("selection over a bad index differs from the clean store's")
			}
			wantIndex(t, st, res.Key)
			sel, _, stats, err = AnalyzeCached(st, res.Key, cfgB, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.IndexHit || !bytes.Equal(sel, want[1]) {
				t.Errorf("after healing: stats %+v, selection equal=%v", stats, bytes.Equal(sel, want[1]))
			}
		})
	}
}

// TestCorruptProfileBlobIsRepaired: an undecodable profile blob is
// recomputed once and replaced, not recomputed by every later analysis
// (PutProfile publishes exclusively, so the bad entry has to go first).
func TestCorruptProfileBlobIsRepaired(t *testing.T) {
	data := recordTrace(t)
	cfgA, _ := ConfigFor("", 0)
	cfgB, _ := ConfigFor("", 7)
	mClean, stClean := newManager(t)
	clean, err := mClean.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	m, st := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	digest := fileDigests(t, st, res.Key)[res.Regions/2]
	blob := filepath.Join(st.Root(), "profiles", digest+"."+signature.CodecVersion)
	if err := os.WriteFile(blob, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range []bp.Config{cfgA, cfgB} {
		want, _, _, err := AnalyzeCached(stClean, clean.Key, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sel, _, stats, err := AnalyzeCached(st, res.Key, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantComputed := 1 - i; stats.Computed != wantComputed || stats.Cached != stats.Regions-wantComputed {
			t.Errorf("analysis %d over a corrupt blob: stats %+v, want %d computed", i, stats, wantComputed)
		}
		if !bytes.Equal(sel, want) {
			t.Errorf("analysis %d: selection differs from the uncorrupted store's", i)
		}
	}
	if rd := cachedProfile(st, digest); rd == nil {
		t.Error("repaired profile does not decode")
	}
}

// TestDigestIndexTelemetry: the analyze span says where the digests came
// from and the manager counts both outcomes.
func TestDigestIndexTelemetry(t *testing.T) {
	data := recordTrace(t)
	m, st := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	run := func(maxK int) string {
		t.Helper()
		snap, err := m.Submit(Request{Kind: KindAnalyze, Trace: res.Key, MaxK: maxK})
		if err != nil {
			t.Fatal(err)
		}
		if snap, err = m.Wait(context.Background(), snap.ID); err != nil || snap.Status != StatusDone {
			t.Fatalf("analyze max_k=%d: %v %+v", maxK, err, snap)
		}
		return snap.Span.Attrs["region_digests"]
	}
	if got := run(0); got != "index" {
		t.Errorf("region_digests after a streamed upload = %q, want index", got)
	}
	if err := st.RemoveArtifact(res.Key, tracefile.DigestIndexName); err != nil {
		t.Fatal(err)
	}
	if got := run(7); got != "hashed" {
		t.Errorf("region_digests without an index = %q, want hashed", got)
	}
	if got := run(9); got != "index" {
		t.Errorf("region_digests after the rewrite = %q, want index", got)
	}
	mv := metricValues(t, m)
	if mv["bp_region_digest_index_hits_total"] != 2 || mv["bp_region_digest_index_misses_total"] != 1 {
		t.Errorf("index hits %v misses %v, want 2 and 1",
			mv["bp_region_digest_index_hits_total"], mv["bp_region_digest_index_misses_total"])
	}
}
