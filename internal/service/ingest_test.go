package service

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// recordTrace serializes a small recorded workload.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newManager(t *testing.T) (*Manager, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, 2, 0)
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	return m, st
}

// TestIngestProfilesDuringUpload is the tentpole acceptance test: a
// streaming upload leaves every region profile in the store, so the
// analyze that follows computes zero profiles — and still produces a
// selection byte-identical to a fully cold analysis of the same bytes.
func TestIngestProfilesDuringUpload(t *testing.T) {
	data := recordTrace(t)

	// Cold reference: plain PutTrace (no profiling) + analyze.
	mCold, stCold := newManager(t)
	keyCold, _, err := stCold.PutTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	cfg := bp.DefaultConfig()
	coldSel, _, coldStats, err := AnalyzeCached(stCold, keyCold, cfg, mCold.pipe.replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Computed != coldStats.Regions || coldStats.Regions == 0 {
		t.Fatalf("cold analysis stats %+v, want all regions computed", coldStats)
	}

	// Streaming ingest: profiles land during the upload.
	m, st := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Streamed || res.Existed {
		t.Fatalf("ingest result %+v, want streamed fresh upload", res)
	}
	if res.Key != keyCold {
		t.Fatalf("ingest key %s, cold key %s", res.Key, keyCold)
	}
	if res.Regions == 0 || res.ProfilesComputed != res.Regions || res.ProfilesCached != 0 {
		t.Fatalf("ingest profiled %d/%d regions (%d cached), want all fresh", res.ProfilesComputed, res.Regions, res.ProfilesCached)
	}
	if res.Name != "npb-is" || res.Threads != 8 {
		t.Fatalf("ingest metadata %q/%d threads", res.Name, res.Threads)
	}

	sel, cached, stats, err := AnalyzeCached(st, res.Key, cfg, m.pipe.replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first analyze after ingest hit the selection cache")
	}
	if stats.Computed != 0 || stats.Cached != stats.Regions || stats.Regions != res.Regions {
		t.Fatalf("analyze after ingest stats %+v, want 0 computed", stats)
	}
	if !bytes.Equal(sel, coldSel) {
		t.Fatal("selection from cached profiles differs from cold-path selection")
	}

	// Re-uploading identical bytes dedups the trace and hits every profile.
	res2, err := m.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Existed || res2.ProfilesComputed != 0 || res2.ProfilesCached != res.Regions {
		t.Fatalf("re-ingest result %+v, want full dedup", res2)
	}
}

// TestReclusterReusesProfiles: changing only the clustering's MaxK must
// reuse 100% of the cached region profiles — the re-analysis pays only
// k-means.
func TestReclusterReusesProfiles(t *testing.T) {
	m, st := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(recordTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	cfgA, err := ConfigFor("", 0)
	if err != nil {
		t.Fatal(err)
	}
	selA, _, statsA, err := AnalyzeCached(st, res.Key, cfgA, m.pipe.replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if statsA.Computed != 0 {
		t.Fatalf("first analyze computed %d profiles after streaming ingest", statsA.Computed)
	}

	cfgB, err := ConfigFor("", 7)
	if err != nil {
		t.Fatal(err)
	}
	if SelectionArtifact(cfgA) == SelectionArtifact(cfgB) {
		t.Fatal("different MaxK landed on the same selection artifact")
	}
	selB, cached, statsB, err := AnalyzeCached(st, res.Key, cfgB, m.pipe.replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("re-cluster hit the other config's selection artifact")
	}
	if statsB.Computed != 0 || statsB.Cached != statsB.Regions {
		t.Fatalf("re-cluster stats %+v, want 100%% profile reuse", statsB)
	}
	// Different MaxK is allowed to (and here does not have to) change the
	// selection; what matters is both parse and neither re-profiled.
	for _, sel := range [][]byte{selA, selB} {
		if _, err := bp.LoadSelection(bytes.NewReader(sel)); err != nil {
			t.Fatal(err)
		}
	}

	// The signature variant, too, shares profiles: RegionData is
	// variant-independent (Options apply at Build time).
	cfgC, err := ConfigFor("bbv", 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, statsC, err := AnalyzeCached(st, res.Key, cfgC, m.pipe.replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if statsC.Computed != 0 {
		t.Fatalf("bbv re-analysis computed %d profiles, want 0", statsC.Computed)
	}
}

// TestIngestFailureLeavesNoOrphans: an upload that dies mid-transfer must
// leave the store exactly as it was — no trace under the key, and no
// profile artifacts from the regions that had already been profiled
// before the stream broke.
func TestIngestFailureLeavesNoOrphans(t *testing.T) {
	data := recordTrace(t)
	m, st := newManager(t)

	// Truncate mid-stream: early regions arrive complete (and are
	// profiled), then the decode fails.
	if _, err := m.IngestTrace(bytes.NewReader(data[:len(data)*3/4])); err == nil {
		t.Fatal("truncated ingest succeeded")
	}
	traces, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Fatalf("failed ingest left traces %v", traces)
	}
	if n := storedProfiles(t, st); n != 0 {
		t.Fatalf("failed ingest orphaned %d profiles", n)
	}

	// But pre-existing profiles survive a failed re-upload of overlapping
	// content.
	res, err := m.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.IngestTrace(bytes.NewReader(data[:len(data)*3/4])); err == nil {
		t.Fatal("truncated ingest succeeded")
	}
	if n := storedProfiles(t, st); n != res.Regions {
		t.Fatalf("failed re-upload disturbed the profile cache: %d profiles, want %d", n, res.Regions)
	}
}

// storedProfiles counts the store's profile cache entries on disk.
func storedProfiles(t *testing.T, st *store.Store) int {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(st.Root(), "profiles"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return len(ents)
}

// panicReader stands in for an upload body whose Read panics (e.g. a
// buggy middleware wrapper), the worst-case failure of the decode path.
type panicReader struct{}

func (panicReader) Read([]byte) (int, error) { panic("upload body exploded") }

// TestIngestPanicDrainsWorkers: a panic out of the decode path must
// propagate but not strand the profiler pool — net/http recovers handler
// panics, so stranded workers would otherwise accumulate silently, one
// pool per bad request.
func TestIngestPanicDrainsWorkers(t *testing.T) {
	m, _ := newManager(t)
	before := runtime.NumGoroutine()
	const rounds = 4
	for i := 0; i < rounds; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("ingest swallowed the reader panic")
				}
			}()
			m.IngestTrace(panicReader{})
		}()
	}
	// Workers exit asynchronously after the channel close; give them a
	// moment. Pre-fix this leaked rounds*GOMAXPROCS goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+2 {
		t.Fatalf("goroutines grew from %d to %d after %d panicking ingests", before, got, rounds)
	}
}

// TestIngestV1Fallback: a legacy v1 upload stores and validates but does
// not profile in flight; corrupt v1 bytes are rejected and not stored.
func TestIngestV1Fallback(t *testing.T) {
	v1 := v1Upload(t)
	m, st := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Streamed || res.ProfilesComputed != 0 {
		t.Fatalf("v1 ingest result %+v", res)
	}
	if res.Name != "npb-is" || res.Threads != 8 || res.Regions == 0 {
		t.Fatalf("v1 ingest metadata %+v", res)
	}
	if !st.HasTrace(res.Key) {
		t.Fatal("v1 trace not stored")
	}

	// Corrupt v1 bytes: stored bytes fail validation, key must not linger.
	bad := append([]byte(nil), v1...)
	bad[len(bad)-3] ^= 0xff // inside the trailer
	if _, err := m.IngestTrace(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt v1 ingest succeeded")
	}
	traces, err := st.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("store holds %d traces after corrupt upload, want 1", len(traces))
	}
}

// TestManagerMaxK: the MaxK override flows into validation, dedup and
// artifacts.
func TestManagerMaxK(t *testing.T) {
	m, _ := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(recordTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Request{Kind: KindAnalyze, Trace: res.Key, MaxK: -1}); err == nil {
		t.Error("negative max_k accepted")
	}
	if _, err := m.Submit(Request{Kind: KindSimulate, Trace: res.Key, MaxK: 5}); err == nil {
		t.Error("max_k accepted for simulate")
	}
	a, err := m.Submit(Request{Kind: KindAnalyze, Trace: res.Key})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(Request{Kind: KindAnalyze, Trace: res.Key, MaxK: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("distinct MaxK coalesced onto one job")
	}
	for _, id := range []string{a.ID, b.ID} {
		snap, err := m.Wait(context.Background(), id)
		if err != nil || snap.Status != StatusDone {
			t.Fatalf("job %s: err=%v status=%s error=%s", id, err, snap.Status, snap.Error)
		}
	}
	// Both jobs ran over the ingest-warmed profile cache: the span attrs CI
	// greps for must report zero freshly computed profiles.
	for _, id := range []string{a.ID, b.ID} {
		snap, _ := m.Get(id)
		if snap.Span == nil {
			t.Fatalf("job %s has no span", id)
		}
		if got := snap.Span.Attrs["profiles_computed"]; got != "0" {
			t.Errorf("job %s profiles_computed attr = %q, want 0", id, got)
		}
		if got := snap.Span.Attrs["profiles_cached"]; got == "" || got == "0" {
			t.Errorf("job %s profiles_cached attr = %q, want > 0", id, got)
		}
	}
	if s := m.Stats(); s.ProfileComputed != int64(res.Regions) || s.ProfileCacheHits < int64(2*res.Regions) {
		t.Errorf("manager stats %+v after ingest + two warm analyses", s)
	}
}

// repeatedContentTrace records a program whose regions cycle through
// `distinct` different contents, so pool workers meet the same region digest
// at the same moment — most sharply at the start, when nothing is stored yet.
func repeatedContentTrace(t *testing.T, regions, distinct int) []byte {
	t.Helper()
	const threads = 4
	prog := &trace.SliceProgram{ProgName: "repeat", NumThreads: threads}
	for i := 0; i < regions; i++ {
		r := &trace.SliceRegion{Threads: make([][]trace.BlockExec, threads)}
		for tid := range r.Threads {
			for b := 0; b < 400; b++ {
				r.Threads[tid] = append(r.Threads[tid], trace.BlockExec{
					Block: i%distinct*8 + b%8, Instrs: 5,
					Accs: []trace.Access{{Addr: uint64((tid*4096 + b*(1+i%distinct)) * trace.LineSize), Write: b%4 == 0}},
				})
			}
		}
		prog.Rgns = append(prog.Rgns, r)
	}
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, prog); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRepeatedRegionContentProfiledOnce: when a trace repeats region
// content, an ingest and a cold analysis each profile every distinct digest
// exactly once — two pool workers that meet the same digest before either
// has stored its profile must not both compute it — and the selection is
// byte-identical to a sequential pass that cannot race. Run with -race
// -count=10: before the per-call claim this failed almost every time.
func TestRepeatedRegionContentProfiledOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // the race needs a pool
	const regions, distinct = 48, 3
	data := repeatedContentTrace(t, regions, distinct)
	cfg := bp.DefaultConfig()
	cfg.Cluster.MaxK = 5 // three contents: keep k-means out of the -race budget

	m, st := newManager(t)
	res, err := m.IngestTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Regions != regions || res.ProfilesComputed != distinct || res.ProfilesCached != regions-distinct {
		t.Errorf("ingest computed %d and reused %d profiles of %d regions, want %d and %d",
			res.ProfilesComputed, res.ProfilesCached, res.Regions, distinct, regions-distinct)
	}
	warmSel, _, stats, err := AnalyzeCached(st, res.Key, cfg, m.pipe.replay, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ProfileStats{Regions: regions, Cached: regions, IndexHit: true}) {
		t.Errorf("analyze after ingest stats %+v, want every region cached", stats)
	}

	// Cold analysis: the trace stored without profiling.
	_, stCold := newManager(t)
	key, _, err := stCold.PutTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	coldSel, _, stats, err := AnalyzeCached(stCold, key, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ProfileStats{Regions: regions, Cached: regions - distinct, Computed: distinct}) {
		t.Errorf("cold analysis stats %+v, want %d computed", stats, distinct)
	}

	// Reference: one worker, so no two regions are ever in flight together.
	runtime.GOMAXPROCS(1)
	_, stSeq := newManager(t)
	if _, _, err := stSeq.PutTrace(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	seqSel, _, _, err := AnalyzeCached(stSeq, key, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldSel, seqSel) || !bytes.Equal(warmSel, seqSel) {
		t.Error("selection depends on how duplicate regions were profiled")
	}
}
