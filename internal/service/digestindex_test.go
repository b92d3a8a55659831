package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// fileDigests streams the stored trace through tracefile.DecodeStream, the
// one place a region digest is computed: the ground truth an index must
// equal.
func fileDigests(t *testing.T, st *store.Store, key string) []string {
	t.Helper()
	path, err := st.TracePath(key)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	if _, err := tracefile.DecodeStream(bytes.NewReader(data), func(rc tracefile.RegionChunks) error {
		digests = append(digests, rc.Digest)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return digests
}

func indexPath(st *store.Store, key string) string {
	return filepath.Join(st.Root(), "artifacts", key, tracefile.DigestIndexName)
}

// wantIndex fails unless the trace's stored index lists exactly the digests
// its stored file streams to.
func wantIndex(t *testing.T, st *store.Store, key string) {
	t.Helper()
	b, err := st.GetArtifact(key, tracefile.DigestIndexName)
	if err != nil {
		t.Fatalf("no digest index: %v", err)
	}
	if want := encodeDigestIndex(fileDigests(t, st, key)); !bytes.Equal(b, want) {
		t.Fatalf("digest index (%d bytes) differs from the stored trace's stream digests (%d bytes)", len(b), len(want))
	}
}

// TestIngestWritesDigestIndex: a streamed upload leaves an index equal to
// streaming the stored file, only after the commit, once; RemoveTrace takes
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

// TestFirstAnalysisWritesDigestIndex: a trace that did not stream in (a
// PutTrace/ImportTrace'd file) gets its profiles and its index from the
// profile pass of its first analysis, which selects what an upload of the
// same bytes does; the second analysis hits the index and profiles nothing.
func TestFirstAnalysisWritesDigestIndex(t *testing.T) {
	cfgA, _ := ConfigFor("", 0)
	cfgB, _ := ConfigFor("", 7)
	t.Run("imported", func(t *testing.T) {
		data := recordWith(t)
		_, st := newManager(t)
		path := filepath.Join(t.TempDir(), "t.bptrace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		key, _, err := st.ImportTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.HasArtifact(key, tracefile.DigestIndexName) {
			t.Fatal("index exists before any analysis")
		}
		sel, _, stats, err := AnalyzeCached(st, key, cfgA, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stats.IndexHit || stats.Computed != stats.Regions {
			t.Fatalf("first analysis stats %+v, want a profile pass that profiled every region", stats)
		}
		wantIndex(t, st, key)
		_, _, stats, err = AnalyzeCached(st, key, cfgB, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.IndexHit || stats.Computed != 0 {
			t.Fatalf("second analysis stats %+v, want an index hit and nothing profiled", stats)
		}

		mUp, stUp := newManager(t)
		up, err := mUp.IngestTrace(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if want, _, _, err := AnalyzeCached(stUp, up.Key, cfgA, nil); err != nil || !bytes.Equal(sel, want) {
			t.Fatalf("imported trace selects other bytes than the same trace uploaded (err %v)", err)
		}
	})
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
// call runs the profile pass over the stored trace, which finds every
// profile stored, computes none and rewrites the index.
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
	profiles, stats, err := profilesFor(st, res.Key, f)
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
	unindexed, stats, err := profilesFor(st, res.Key, f)
	if want := (ProfileStats{Regions: res.Regions, Cached: res.Regions}); err != nil || stats != want {
		t.Fatalf("unindexed analysis: stats %+v, err %v; want %+v", stats, err, want)
	}
	for i := range profiles {
		if !bytes.Equal(signature.EncodeRegionData(unindexed[i]), signature.EncodeRegionData(profiles[i])) {
			t.Fatalf("region %d: unindexed analysis read another profile", i)
		}
	}
	wantIndex(t, st, res.Key)
}

// TestBadDigestIndexIsAMissAndHeals: an index that is not exactly one
// well-formed digest per region changes timing, never a result — the
// analysis runs the profile pass, selects the same bytes as over a clean
// store, and leaves a correct index for the next one.
func TestBadDigestIndexIsAMissAndHeals(t *testing.T) {
	const keyLen = 64 // a digest: hex SHA-256
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
		if want[i], _, _, err = AnalyzeCached(stClean, clean.Key, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}

	upper := bytes.Replace(good, good[:keyLen], []byte(strings.ToUpper(string(good[:keyLen]))), 1)
	if bytes.Equal(upper, good) {
		t.Fatal("first digest has no letter to upper-case") // 1 in 10^13
	}
	noNewline := append([]byte(nil), good...)
	noNewline[keyLen] = 'a'
	for name, bad := range map[string][]byte{
		"empty":             {},
		"truncated":         good[:len(good)-10],
		"one-digest-short":  good[keyLen+1:],
		"one-digest-long":   append(append([]byte(nil), good...), good[:keyLen+1]...),
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
			sel, _, stats, err := AnalyzeCached(st, res.Key, cfgA, nil)
			if err != nil {
				t.Fatal(err)
			}
			if stats.IndexHit || stats.Computed != 0 {
				t.Errorf("stats %+v over a bad index, want a profile pass that finds every profile still cached", stats)
			}
			if !bytes.Equal(sel, want[0]) {
				t.Error("selection over a bad index differs from the clean store's")
			}
			wantIndex(t, st, res.Key)
			sel, _, stats, err = AnalyzeCached(st, res.Key, cfgB, nil)
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
// (profiles publish exclusively, so the bad entry has to go first). The
// corruption is one name replaced by a bad plain blob, what a store written
// before packs can hold; the upload's pack under the other names is intact.
func TestCorruptProfileBlobIsRepaired(t *testing.T) {
	st, res := ingested(t)
	digest := fileDigests(t, st, res.Key)[res.Regions/2]
	blob := filepath.Join(st.Root(), "profiles", digest+"."+signature.CodecVersion)
	if err := os.Remove(blob); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blob, []byte("not a profile"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantRepairs(t, st, res, 1)
	if rd := cachedProfile(st, digest, st.GetProfiles(signature.CodecVersion, []string{digest})[0]); rd == nil {
		t.Error("repaired profile does not decode")
	}
}

// TestTruncatedProfilePackIsRepaired: truncating the upload's profile pack
// turns every one of its names into a miss; the next analysis recomputes and
// republishes them all, as one new pack, and the one after computes none.
// With the digest index gone as well, the analysis's first profile pass
// finds the damaged names still in place and skips them; the read after it
// removes them, and a second pass recomputes them in the same analysis.
func TestTruncatedProfilePackIsRepaired(t *testing.T) {
	for _, dropIndex := range []bool{false, true} {
		st, res := ingested(t)
		digests := fileDigests(t, st, res.Key)
		blob := filepath.Join(st.Root(), "profiles", digests[0]+"."+signature.CodecVersion)
		fi, err := os.Stat(blob)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(blob, fi.Size()-1); err != nil {
			t.Fatal(err)
		}
		if dropIndex {
			if err := st.RemoveArtifact(res.Key, tracefile.DigestIndexName); err != nil {
				t.Fatal(err)
			}
		}
		distinct := make(map[string]bool)
		for _, d := range digests {
			distinct[d] = true
		}
		if len(distinct) < 2 {
			t.Fatalf("%d distinct regions: the upload published no pack", len(distinct))
		}
		wantRepairs(t, st, res, len(distinct))
		if n := profileFiles(t, st); n != 1 {
			t.Errorf("index dropped %v: republished profiles in %d files, want one pack", dropIndex, n)
		}
		wantIndex(t, st, res.Key)
	}
}

// damagedStore uploads recordTrace's bytes, removes the profile of region
// 5 (the digest index stays) and applies damage to the stored bytes of that
// region's thread-0 chunk, data[off:end]. It returns the store, the trace
// key, and the upload's digest and profile blob of region 5.
func damagedStore(t *testing.T, damage func(data []byte, off, end int)) (st *store.Store, key, digest string, blob []byte) {
	t.Helper()
	st, res := ingested(t)
	digest = fileDigests(t, st, res.Key)[5]
	blob, err := st.GetProfile(digest, signature.CodecVersion)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RemoveProfile(digest, signature.CodecVersion); err != nil {
		t.Fatal(err)
	}
	path, err := st.TracePath(res.Key)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lens []int // every chunk's length, in file order
	var first []byte
	if _, err := tracefile.DecodeStream(bytes.NewReader(data), func(rc tracefile.RegionChunks) error {
		if rc.Index == 0 {
			first = rc.Chunks[0]
		}
		for _, c := range rc.Chunks {
			lens = append(lens, len(c))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	off := bytes.Index(data, first) // nothing before it but the header
	for c := 0; c < 5*res.Threads; c++ {
		off += lens[c] + len(binary.AppendUvarint(nil, uint64(lens[c+1])))
	}
	damage(data, off, off+lens[5*res.Threads])
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return st, res.Key, digest, blob
}

// TestUndecodableStoredChunkFailsAnalysis: an analysis that misses a profile
// over a stored trace whose chunk no longer decodes (11 bytes of 0xff mid
// chunk, a varint overflow) fails with ErrFormat, and stores no profile under
// the upload's digest — rather than profiling the truncated stream into it.
func TestUndecodableStoredChunkFailsAnalysis(t *testing.T) {
	st, key, digest, _ := damagedStore(t, func(data []byte, off, end int) {
		copy(data[(off+end)/2:], bytes.Repeat([]byte{0xff}, 11))
	})
	if _, _, _, err := AnalyzeCached(st, key, bp.DefaultConfig(), nil); !errors.Is(err, tracefile.ErrFormat) {
		t.Fatalf("analysis of an undecodable stored chunk: err = %v, want ErrFormat", err)
	}
	if st.HasProfile(digest, signature.CodecVersion) {
		t.Error("a profile was stored under the upload's digest")
	}
}

// TestBitFlippedStoredChunkNeverPoisonsProfiles: single-bit flips in a
// stored chunk whose profile is missing never land a profile under the
// upload's digest that differs from the upload's: whatever the analysis
// profiles lands under the digest of the damaged bytes, and the rewritten
// index lists that digest.
func TestBitFlippedStoredChunkNeverPoisonsProfiles(t *testing.T) {
	for k := 1; k <= 5; k++ {
		st, key, digest, blob := damagedStore(t, func(data []byte, off, end int) {
			data[off+(end-off)*k/6] ^= 0x04
		})
		_, _, _, err := AnalyzeCached(st, key, bp.DefaultConfig(), nil)
		if err != nil && !errors.Is(err, tracefile.ErrFormat) {
			t.Fatalf("flip %d: %v", k, err)
		}
		if got, gerr := st.GetProfile(digest, signature.CodecVersion); gerr == nil && !bytes.Equal(got, blob) {
			t.Errorf("flip %d: a profile other than the upload's landed under its digest", k)
		}
		if err == nil {
			wantIndex(t, st, key)
			if damaged := fileDigests(t, st, key)[5]; damaged == digest || !st.HasProfile(damaged, signature.CodecVersion) {
				t.Errorf("flip %d: no profile under the damaged bytes' digest", k)
			}
		}
	}
}

// ingested streams recordTrace's upload into a fresh manager's store.
func ingested(t *testing.T) (*store.Store, IngestResult) {
	t.Helper()
	m, st := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(recordTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}

// wantRepairs runs two analyses of different configs over st, whose profile
// cache a test has damaged: the first must recompute exactly `damaged`
// profiles, the second none, and both must select what a clean store does.
func wantRepairs(t *testing.T, st *store.Store, res IngestResult, damaged int) {
	t.Helper()
	stClean, clean := ingested(t)
	for i, maxK := range []int{0, 7} {
		cfg, _ := ConfigFor("", maxK)
		want, _, _, err := AnalyzeCached(stClean, clean.Key, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		sel, _, stats, err := AnalyzeCached(st, res.Key, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantComputed := damaged * (1 - i); stats.Computed != wantComputed || stats.Cached != stats.Regions-wantComputed {
			t.Errorf("analysis %d over a damaged cache: stats %+v, want %d computed", i, stats, wantComputed)
		}
		if !bytes.Equal(sel, want) {
			t.Errorf("analysis %d: selection differs from the undamaged store's", i)
		}
	}
}

// profileFiles counts the distinct files behind the store's profile names.
func profileFiles(t *testing.T, st *store.Store) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(st.Root(), "profiles"))
	if err != nil {
		t.Fatal(err)
	}
	var files []os.FileInfo
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(st.Root(), "profiles", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(files, func(f os.FileInfo) bool { return os.SameFile(f, fi) }) {
			files = append(files, fi)
		}
	}
	return len(files)
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
