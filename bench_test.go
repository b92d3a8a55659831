// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section. Each benchmark regenerates its experiment on
// a reduced-scale workload suite (region counts and phase structure
// unchanged; iteration counts scaled), reporting wall time per full
// regeneration. Run the paper-shaped version with:
//
//	go run ./cmd/bpexp -all
package barrierpoint_test

import (
	"bytes"
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/cluster"
	"barrierpoint/internal/experiments"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/service"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/workload"
)

// benchScale keeps `go test -bench=.` to a few minutes for the whole file.
const benchScale = 0.2

// benchSubset is used for the heaviest sweeps.
var benchSubset = []string{"npb-ft", "npb-is", "npb-lu"}

func newBenchHarness(subset bool) *experiments.Harness {
	h := experiments.New(benchScale)
	if subset {
		h.Benches = benchSubset
	}
	return h
}

func BenchmarkTable1(b *testing.B) {
	h := newBenchHarness(true)
	for i := 0; i < b.N; i++ {
		_ = h.Table1().String()
	}
}

func BenchmarkTable2(b *testing.B) {
	h := newBenchHarness(true)
	for i := 0; i < b.N; i++ {
		_ = h.Table2().String()
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(false)
		_ = h.Fig1().String()
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig3()
		_ = tbl.String()
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig4()
		_ = tbl.String()
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_ = h.Fig5().String()
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_ = h.Fig6().String()
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig7()
		_ = tbl.String()
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig8()
		_ = tbl.String()
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_, tbl := h.Fig9()
		_ = tbl.String()
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(true)
		_ = h.Table3().String()
	}
}

// Component-level benchmarks: the costs behind the methodology.

// BenchmarkFullSimulation measures the detailed simulation BarrierPoint
// replaces (the denominator of the Fig. 9 speedups).
func BenchmarkFullSimulation(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	mc := bp.TableIMachine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.SimulateFull(prog, mc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfiling measures the one-time instrumentation pass (the
// paper's 20-30x-slowdown Pintool stand-in).
func BenchmarkProfiling(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bp.Analyze(prog, bp.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentedProfile is BenchmarkProfiling with the telemetry
// observer live: every stage lands in a span and a latency histogram,
// exactly as a bpserve job records it. Its delta against
// BenchmarkProfiling bounds the instrumentation overhead.
func BenchmarkInstrumentedProfile(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	reg := obs.NewRegistry()
	stageDur := reg.HistogramVec("bench_stage_seconds", "per-stage latency", "stage", obs.DefLatencyBuckets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		span := obs.NewSpan(obs.NewTraceID(), "bench")
		obsrv := func(stage string, d time.Duration) {
			span.Observe(stage, d)
			stageDur.With(stage).ObserveDuration(d)
		}
		if _, err := bp.AnalyzeObserved(prog, bp.DefaultConfig(), obsrv); err != nil {
			b.Fatal(err)
		}
		span.Finish()
	}
}

// newBenchStore files a recorded npb-ft trace in a fresh content-addressed
// store, returning the store and the trace's key.
func newBenchStore(b *testing.B) (*store.Store, string) {
	b.Helper()
	dir := b.TempDir()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(dir, "ft.bptrace")
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	if err := bp.SaveTrace(path, prog); err != nil {
		b.Fatal(err)
	}
	key, _, err := st.ImportTrace(path)
	if err != nil {
		b.Fatal(err)
	}
	return st, key
}

// BenchmarkAnalyzeColdStore measures analyze throughput through the store
// with the selection artifact AND every cached region profile invalidated
// each iteration: the full profile+cluster cost plus artifact writes.
// Compare to BenchmarkAnalyzeCachedStore for the artifact cache's speedup
// and to BenchmarkRecluster for the profile cache's.
func BenchmarkAnalyzeColdStore(b *testing.B) {
	st, key := newBenchStore(b)
	cfg := bp.DefaultConfig()
	name := service.SelectionArtifact(cfg)
	f, err := st.OpenTrace(key)
	if err != nil {
		b.Fatal(err)
	}
	digests := make([]string, f.Regions())
	distinct := make(map[string]bool)
	for i := range digests {
		if digests[i], err = f.RegionDigest(i); err != nil {
			b.Fatal(err)
		}
		distinct[digests[i]] = true
	}
	f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RemoveArtifact(key, name); err != nil {
			b.Fatal(err)
		}
		for _, d := range digests {
			if err := st.RemoveProfile(d, signature.CodecVersion); err != nil {
				b.Fatal(err)
			}
		}
		_, cached, stats, err := service.AnalyzeCached(st, key, cfg, nil, nil)
		if err != nil || cached {
			b.Fatalf("cold analyze: cached=%v err=%v", cached, err)
		}
		// Repeated region content dedups within the run; every distinct
		// region must still have been profiled fresh.
		if stats.Computed != len(distinct) {
			b.Fatalf("cold analyze computed %d profiles, want %d distinct", stats.Computed, len(distinct))
		}
	}
}

// BenchmarkAnalyzeCachedStore measures the repeat-request path: every
// iteration is a store hit that returns the selection without opening the
// trace or profiling.
func BenchmarkAnalyzeCachedStore(b *testing.B) {
	st, key := newBenchStore(b)
	cfg := bp.DefaultConfig()
	if _, _, _, err := service.AnalyzeCached(st, key, cfg, nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, cached, _, err := service.AnalyzeCached(st, key, cfg, nil, nil); err != nil || !cached {
			b.Fatalf("cached analyze: cached=%v err=%v", cached, err)
		}
	}
}

// BenchmarkRecluster measures re-clustering over a warm profile cache:
// the per-region profiles are content-addressed, so after one analysis
// (or a streaming upload) a request with a different clustering config —
// here MaxK — reuses every cached profile and pays only k-means plus the
// artifact write. The gap to BenchmarkAnalyzeColdStore is the profiling
// cost the cache removes.
func BenchmarkRecluster(b *testing.B) {
	st, key := newBenchStore(b)
	// One cold analysis fills the content-addressed profile cache.
	if _, cached, _, err := service.AnalyzeCached(st, key, bp.DefaultConfig(), nil, nil); err != nil || cached {
		b.Fatalf("warm-up analyze: cached=%v err=%v", cached, err)
	}
	cfg, err := service.ConfigFor("", 7)
	if err != nil {
		b.Fatal(err)
	}
	name := service.SelectionArtifact(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RemoveArtifact(key, name); err != nil {
			b.Fatal(err)
		}
		_, cached, stats, err := service.AnalyzeCached(st, key, cfg, nil, nil)
		if err != nil || cached {
			b.Fatalf("recluster: cached=%v err=%v", cached, err)
		}
		if stats.Computed != 0 || stats.Cached != stats.Regions {
			b.Fatalf("recluster profiled %d/%d regions fresh, want all %d from cache",
				stats.Computed, stats.Regions, stats.Regions)
		}
	}
}

// BenchmarkReclusterManyRegions measures the server's analyze path on the
// end-to-end benchmark's cold-many-regions shape (npb-lu x0.2: 503 regions,
// 43 distinct): the trace arrives through the streaming ingest, which leaves
// every region profile and the region-digest index in the store, and each
// iteration is a selection-artifact miss (the artifact is removed first,
// which is what a max_k not seen before amounts to at a constant amount of
// k-means work). It should read no trace bytes beyond header and footer.
func BenchmarkReclusterManyRegions(b *testing.B) {
	st, err := store.Open(filepath.Join(b.TempDir(), "store"))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bp.RecordTrace(&buf, workload.New("npb-lu", 8, workload.WithScale(0.2))); err != nil {
		b.Fatal(err)
	}
	m := service.New(st, 1, 0)
	defer m.Shutdown(context.Background())
	res, err := m.IngestTrace(&buf)
	if err != nil {
		b.Fatal(err)
	}
	cfg := bp.DefaultConfig()
	name := service.SelectionArtifact(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RemoveArtifact(res.Key, name); err != nil {
			b.Fatal(err)
		}
		_, cached, stats, err := service.AnalyzeCached(st, res.Key, cfg, nil, nil)
		if err != nil || cached || stats.Computed != 0 {
			b.Fatalf("recluster: cached=%v computed=%d err=%v", cached, stats.Computed, err)
		}
	}
}

// BenchmarkSelectManyRegions measures clustering alone on the same shape:
// signature construction plus cluster.Select over 503 in-memory profiles.
func BenchmarkSelectManyRegions(b *testing.B) {
	profiles := profile.Program(workload.New("npb-lu", 8, workload.WithScale(0.2)))
	cfg := bp.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svs, weights := signature.BuildAll(profiles, cfg.Signature)
		if _, err := cluster.Select(svs, weights, cfg.Cluster); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBarrierPointSimulation measures the sampled path: barrierpoints
// only, MRU-warmed, in parallel.
func BenchmarkBarrierPointSimulation(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(benchScale))
	mc := bp.TableIMachine(1)
	a, err := bp.Analyze(prog, bp.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SimulatePoints(mc, bp.MRUWarmup); err != nil {
			b.Fatal(err)
		}
	}
}

// coldCacheEstimator records an 8-thread trace of the named workload,
// analyzes it once, and returns the sampled estimate as a freshly uploaded
// trace pays for it: replayed through a ReplayCache that starts empty on
// every call, so region decode, the MRU prefix pass and the point
// simulations are all inside the call and the selection is outside it.
func coldCacheEstimator(tb testing.TB, name string, scale float64, gz bool, mode bp.WarmupMode) func() {
	path := filepath.Join(tb.TempDir(), name+".bptrace")
	if err := bp.SaveTrace(path, workload.New(name, 8, workload.WithScale(scale)), bp.WithTraceGzip(gz)); err != nil {
		tb.Fatal(err)
	}
	key, err := bp.TraceKey(path)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := bp.OpenTrace(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { f.Close() })
	a, err := bp.Analyze(f, bp.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	mc := bp.TableIMachine(1)
	return func() {
		cold := *a
		cold.Program = bp.NewReplayCache(0).Program(f, key)
		if _, err := cold.Estimate(mc, mode); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkEstimateMRUPrevColdCache is the end-to-end benchmark's
// cold-big-regions shape: npb-cg at scale 0.5, gzip chunks, mru+prev.
func BenchmarkEstimateMRUPrevColdCache(b *testing.B) {
	estimate := coldCacheEstimator(b, "npb-cg", 0.5, true, bp.MRUPrevWarmup)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimate()
	}
}

// BenchmarkEstimateMRUColdCacheManyRegions is its cold-many-regions shape:
// npb-lu at scale 0.2, 503 small regions, uncompressed, mru. Per-point and
// per-region fixed costs — obtaining a machine, decoding a region into the
// cache — carry this one; TestColdEstimateAllocCeiling caps its B/op.
func BenchmarkEstimateMRUColdCacheManyRegions(b *testing.B) {
	estimate := coldCacheEstimator(b, "npb-lu", 0.2, false, bp.MRUWarmup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		estimate()
	}
}

// TestColdEstimateAllocCeiling caps what BenchmarkEstimateMRUColdCacheManyRegions
// allocates per estimate at 9 MB. A machine allocated per point put it at
// 37.5 MB, regions decoded into doubling slices at 10.7 MB; with machines
// from the free list and exact-size decodes it measures 3.5 MB, which is
// the decoded trace plus the MRU snapshots.
func TestColdEstimateAllocCeiling(t *testing.T) {
	estimate := coldCacheEstimator(t, "npb-lu", 0.2, false, bp.MRUWarmup)
	estimate() // the free list and the decode scratch fill on the first one
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		estimate()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 9<<20 {
		t.Errorf("a cold-cache estimate allocates %d bytes, want <= 9 MB", perOp)
	}
}
