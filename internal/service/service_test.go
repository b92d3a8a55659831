package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// newTestStore opens a fresh store holding one small recorded trace and
// returns it with the trace's content key.
func newTestStore(t *testing.T) (*store.Store, string) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	prog := workload.New("npb-is", 8, workload.WithScale(0.05))
	if err := tracefile.Record(&buf, prog); err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return st, key
}

// TestAnalyzeCachedSkipsProfiling is the acceptance test for the artifact
// cache: a second analyze of the same trace must return byte-identical
// selection data without invoking the profiler. analyzeFn (bp.Analyze, the
// only route into profile.Program here) is swapped for a failing stub, so
// any profiling attempt on the cached path fails the test.
func TestAnalyzeCachedSkipsProfiling(t *testing.T) {
	st, key := newTestStore(t)
	cfg := bp.DefaultConfig()

	cold, cached, _, err := AnalyzeCached(st, key, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first analyze reported cached")
	}

	orig := analyzeFn
	defer func() { analyzeFn = orig }()
	analyzeFn = func(st *store.Store, key string, f *tracefile.File, p bp.Program, cfg bp.Config, obsrv bp.StageObserver) (*bp.Analysis, ProfileStats, error) {
		t.Error("cached path invoked the profiler")
		return orig(st, key, f, p, cfg, obsrv)
	}

	warm, cached, _, err := AnalyzeCached(st, key, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("second analyze missed the cache")
	}
	if !bytes.Equal(cold, warm) {
		t.Error("cached selection bytes differ from the cold run")
	}

	// The bytes are a loadable selection.
	sel, err := bp.LoadSelection(bytes.NewReader(warm))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Program != "npb-is" || sel.Threads != 8 || len(sel.Points) == 0 {
		t.Errorf("selection %s/%d threads, %d points", sel.Program, sel.Threads, len(sel.Points))
	}

	// A different signature config is a different artifact: it must not
	// hit the combine-config cache (and with the stub in place, reaching
	// the profiler is expected — restore first).
	analyzeFn = orig
	bbvCfg, err := ParseSignature("bbv")
	if err != nil {
		t.Fatal(err)
	}
	_, cached, _, err = AnalyzeCached(st, key, bbvCfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("bbv config hit the combine cache")
	}
}

// TestReplayCacheSharedAcrossJobs proves one manager cache serves every
// job over a trace: after an estimate and a ground-truth simulate of the
// same trace, the decoded-region cache has hits (regions decoded by the
// first job replayed from memory by the second), and the results are the
// same as a cache-disabled manager's over an identical store.
func TestReplayCacheSharedAcrossJobs(t *testing.T) {
	runBoth := func(t *testing.T, disable bool) (est, act json.RawMessage, stats bp.ReplayCacheStats) {
		st, key := newTestStore(t)
		m := New(st, 2, 0)
		if disable {
			m.SetReplayCacheBytes(-1)
		}
		defer m.Shutdown(context.Background())
		for _, kind := range []Kind{KindEstimate, KindSimulate} {
			snap, err := m.Submit(Request{Kind: kind, Trace: key, Warmup: "mru"})
			if err != nil {
				t.Fatal(err)
			}
			done, err := m.Wait(context.Background(), snap.ID)
			if err != nil || done.Status != StatusDone {
				t.Fatalf("%s job: err=%v status=%s error=%s", kind, err, done.Status, done.Error)
			}
			if kind == KindEstimate {
				est = done.Result
			} else {
				act = done.Result
			}
		}
		return est, act, m.ReplayCacheStats()
	}
	estC, actC, stats := runBoth(t, false)
	if stats.Hits == 0 || stats.Misses == 0 {
		t.Errorf("replay cache unused across jobs: %+v", stats)
	}
	estU, actU, statsU := runBoth(t, true)
	if statsU.Hits != 0 || statsU.Misses != 0 {
		t.Errorf("disabled cache reports activity: %+v", statsU)
	}
	if !bytes.Equal(estC, estU) || !bytes.Equal(actC, actU) {
		t.Error("cached and uncached job results differ")
	}
}

// TestConcurrentSubmitDedup race-submits N identical analyze jobs; they
// must coalesce onto one job, run the analysis exactly once, and hand
// every submitter an identical result. Run under -race in CI.
func TestConcurrentSubmitDedup(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 4, 0)
	defer m.Shutdown(context.Background())

	// Slow the analysis down (and count invocations) so every submission
	// below lands while the first job is still in flight; otherwise the
	// tiny test trace analyzes faster than goroutines spawn and later
	// submissions would exercise the store cache instead of dedup.
	var calls atomic.Int32
	orig := analyzeFn
	defer func() { analyzeFn = orig }()
	analyzeFn = func(st *store.Store, key string, f *tracefile.File, p bp.Program, cfg bp.Config, obsrv bp.StageObserver) (*bp.Analysis, ProfileStats, error) {
		calls.Add(1)
		time.Sleep(100 * time.Millisecond)
		return orig(st, key, f, p, cfg, obsrv)
	}

	const n = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := m.Submit(Request{Kind: KindAnalyze, Trace: key})
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = snap.ID
		}(i)
	}
	wg.Wait()

	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("dedup failed: job ids %v", ids)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, err := m.Wait(ctx, ids[i])
			if err != nil {
				t.Error(err)
				return
			}
			if snap.Status != StatusDone {
				t.Errorf("job status %s: %s", snap.Status, snap.Error)
				return
			}
			results[i] = snap.Result
		}(i)
	}
	wg.Wait()

	for i := 1; i < n; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("result %d differs from result 0", i)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("analysis ran %d times, want 1", got)
	}
	if got := m.Stats().ColdAnalyses; got != 1 {
		t.Errorf("cold analyses = %d, want 1", got)
	}
	if got := m.Stats().Submitted; got != 1 {
		t.Errorf("jobs submitted = %d, want 1 (rest deduped)", got)
	}
	if got := m.Stats().Deduped; got != n-1 {
		t.Errorf("jobs deduped = %d, want %d", got, n-1)
	}
}

// TestCrossKindSingleFlight races an analyze job against estimate jobs
// with different warmup modes on a fresh trace: their dedup keys differ,
// but the underlying profiling must still run exactly once (AnalyzeCached
// is single-flight per trace and config).
func TestCrossKindSingleFlight(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 4, 0)
	defer m.Shutdown(context.Background())

	var calls atomic.Int32
	orig := analyzeFn
	defer func() { analyzeFn = orig }()
	analyzeFn = func(st *store.Store, key string, f *tracefile.File, p bp.Program, cfg bp.Config, obsrv bp.StageObserver) (*bp.Analysis, ProfileStats, error) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond)
		return orig(st, key, f, p, cfg, obsrv)
	}

	reqs := []Request{
		{Kind: KindAnalyze, Trace: key},
		{Kind: KindEstimate, Trace: key, Warmup: "cold"},
		{Kind: KindEstimate, Trace: key, Warmup: "mru"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		snap, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = snap.ID
	}
	for _, id := range ids {
		snap, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status != StatusDone {
			t.Fatalf("job %s failed: %s", id, snap.Error)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("profiling ran %d times across job kinds, want 1", got)
	}
}

// TestEstimateAndSimulateJobs drives the two simulation job kinds end to
// end, then checks their repeat submissions hit the artifact cache.
func TestEstimateAndSimulateJobs(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 2, 0)
	defer m.Shutdown(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	run := func(req Request) Snapshot {
		t.Helper()
		snap, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = m.Wait(ctx, snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status != StatusDone {
			t.Fatalf("job %s failed: %s", snap.ID, snap.Error)
		}
		return snap
	}

	est := run(Request{Kind: KindEstimate, Trace: key, Warmup: "mru"})
	var er EstimateResult
	if err := json.Unmarshal(est.Result, &er); err != nil {
		t.Fatal(err)
	}
	if er.TimeNs <= 0 || er.IPC <= 0 || er.Cores != 8 || er.Warmup != "mru" {
		t.Errorf("estimate result %+v", er)
	}

	act := run(Request{Kind: KindSimulate, Trace: key})
	var ar EstimateResult
	if err := json.Unmarshal(act.Result, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.TimeNs <= 0 || ar.Warmup != "" {
		t.Errorf("simulate result %+v", ar)
	}

	// Estimate vs ground truth should be in the same ballpark (the paper
	// reports low single-digit % error; allow a loose 50% here).
	if ratio := er.TimeNs / ar.TimeNs; ratio < 0.5 || ratio > 1.5 {
		t.Errorf("estimate %.0f ns vs actual %.0f ns (ratio %.2f)", er.TimeNs, ar.TimeNs, ratio)
	}

	// Repeats are pure cache hits with byte-identical payloads.
	est2 := run(Request{Kind: KindEstimate, Trace: key, Warmup: "mru"})
	if !est2.Cached || !bytes.Equal(est2.Result, est.Result) {
		t.Error("repeat estimate was not a byte-identical cache hit")
	}
	act2 := run(Request{Kind: KindSimulate, Trace: key})
	if !act2.Cached || !bytes.Equal(act2.Result, act.Result) {
		t.Error("repeat simulate was not a byte-identical cache hit")
	}
}

func TestSubmitValidation(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 1, 0)
	defer m.Shutdown(context.Background())

	cases := []Request{
		{Kind: "explode", Trace: key},
		{Kind: KindAnalyze, Trace: "0000"},
		{Kind: KindAnalyze, Trace: key, Signature: "vibes"},
		{Kind: KindEstimate, Trace: key, Warmup: "lukewarm"},
		{Kind: KindEstimate, Trace: key, Sockets: -1},
		// Machine/trace core mismatch: 4 sockets = 32 cores vs 8 threads,
		// rejected at submission.
		{Kind: KindEstimate, Trace: key, Sockets: 4},
		{Kind: KindSimulate, Trace: key, Sockets: 2},
	}
	for _, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("Submit(%+v) succeeded, want error", req)
		}
	}
}

// TestDedupIgnoresIrrelevantFields checks the dedup key covers only what
// a kind consumes: requests differing in fields the job ignores (or in
// equivalent socket spellings) coalesce onto one job.
func TestDedupIgnoresIrrelevantFields(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 1, 0)
	defer m.Shutdown(context.Background())

	// Stall the single worker on a slowed analysis so every submission
	// below happens while its predecessors are still queued or running.
	orig := analyzeFn
	defer func() { analyzeFn = orig }()
	analyzeFn = func(st *store.Store, key string, f *tracefile.File, p bp.Program, cfg bp.Config, obsrv bp.StageObserver) (*bp.Analysis, ProfileStats, error) {
		time.Sleep(100 * time.Millisecond)
		return orig(st, key, f, p, cfg, obsrv)
	}
	block, err := m.Submit(Request{Kind: KindAnalyze, Trace: key})
	if err != nil {
		t.Fatal(err)
	}

	// Analyze ignores warmup and sockets; sockets 0 normalizes to 1 for
	// an 8-thread trace; simulate ignores warmup and signature.
	pairs := [][2]Request{
		{{Kind: KindAnalyze, Trace: key}, {Kind: KindAnalyze, Trace: key, Warmup: "mru", Sockets: 1}},
		{{Kind: KindEstimate, Trace: key, Sockets: 0}, {Kind: KindEstimate, Trace: key, Sockets: 1}},
		{{Kind: KindSimulate, Trace: key}, {Kind: KindSimulate, Trace: key, Warmup: "mru", Signature: "bbv"}},
	}
	for _, p := range pairs {
		a, err := m.Submit(p[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.Submit(p[1])
		if err != nil {
			t.Fatal(err)
		}
		if a.ID != b.ID {
			t.Errorf("requests %+v and %+v got distinct jobs %s, %s", p[0], p[1], a.ID, b.ID)
		}
	}

	// But an estimate with a different warmup is genuinely different work.
	a, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Warmup: "cold"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Warmup: "mru"})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Error("estimates with different warmup modes were coalesced")
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, id := range []string{block.ID, a.ID, b.ID} {
		if snap, err := m.Wait(ctx, id); err != nil || snap.Status != StatusDone {
			t.Fatalf("job %s: err %v status %s %s", id, err, snap.Status, snap.Error)
		}
	}
}

func TestShutdown(t *testing.T) {
	st, key := newTestStore(t)
	m := New(st, 2, 0)

	snap, err := m.Submit(Request{Kind: KindAnalyze, Trace: key})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Queued work finished before shutdown returned.
	got, ok := m.Get(snap.ID)
	if !ok || !got.Terminal() {
		t.Errorf("job after shutdown: ok=%v status=%s", ok, got.Status)
	}
	if _, err := m.Submit(Request{Kind: KindAnalyze, Trace: key}); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after shutdown: %v, want ErrClosed", err)
	}
	// Shutdown is idempotent.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestArtifactNamesDisambiguate(t *testing.T) {
	cfg := bp.DefaultConfig()
	mc1, mc4 := bp.TableIMachine(1), bp.TableIMachine(4)
	names := map[string]bool{
		SelectionArtifact(cfg):                       true,
		EstimateArtifact(cfg, mc1, bp.ColdWarmup):    true,
		EstimateArtifact(cfg, mc1, bp.MRUWarmup):     true,
		EstimateArtifact(cfg, mc1, bp.MRUPrevWarmup): true,
		EstimateArtifact(cfg, mc4, bp.MRUWarmup):     true,
		ActualArtifact(mc1):                          true,
		ActualArtifact(mc4):                          true,
	}
	if len(names) != 7 {
		t.Errorf("artifact names collide: %v", names)
	}
	cfg2 := cfg
	cfg2.Cluster.Seed = 7
	if SelectionArtifact(cfg) == SelectionArtifact(cfg2) {
		t.Error("selection name ignores clustering params")
	}
}

// TestAdaptiveEstimateJob: an estimate with a CI target promotes extra
// regions, reports the confidence block, lands on its own artifact (plain
// and adaptive estimates of one trace coexist), and repeats are cache hits.
func TestAdaptiveEstimateJob(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	prog := workload.New("npb-ft", 8, workload.WithScale(0.1))
	if err := tracefile.Record(&buf, prog); err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	m := New(st, 2, 0)
	defer m.Shutdown(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	run := func(req Request) Snapshot {
		t.Helper()
		snap, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		snap, err = m.Wait(ctx, snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Status != StatusDone {
			t.Fatalf("job %s failed: %s", snap.ID, snap.Error)
		}
		return snap
	}

	plain := run(Request{Kind: KindEstimate, Trace: key, Warmup: "mru"})
	var pr EstimateResult
	if err := json.Unmarshal(plain.Result, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.CI == nil {
		t.Fatal("plain estimate has no confidence block")
	}
	if pr.CI.AdaptiveRounds != 0 || pr.CI.TargetCI != 0 {
		t.Errorf("plain estimate CI block %+v", pr.CI)
	}
	if pr.CI.TimeHalfNs <= 0 || pr.CI.Confidence != 0.95 {
		t.Errorf("plain estimate CI block %+v", pr.CI)
	}

	adaptive := run(Request{Kind: KindEstimate, Trace: key, Warmup: "mru", TargetCI: 0.05})
	var ar EstimateResult
	if err := json.Unmarshal(adaptive.Result, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.CI == nil {
		t.Fatal("adaptive estimate has no confidence block")
	}
	if !ar.CI.TargetMet || ar.CI.TimeRel > 0.05 {
		t.Errorf("adaptive run missed its target: %+v", ar.CI)
	}
	if ar.CI.PointsSimulated <= pr.CI.PointsSimulated {
		t.Errorf("adaptive run simulated %d points, plain %d: expected promotions",
			ar.CI.PointsSimulated, pr.CI.PointsSimulated)
	}
	if ar.CI.AdaptiveRounds < 1 {
		t.Errorf("adaptive run reports %d rounds", ar.CI.AdaptiveRounds)
	}
	if s := m.Stats(); s.AdaptiveRounds < 1 || s.AdaptivePromoted < 1 {
		t.Errorf("manager stats missing adaptive counters: %+v", s)
	}

	// The adaptive artifact is distinct from the plain one, and repeats of
	// either are byte-identical cache hits.
	if bytes.Equal(plain.Result, adaptive.Result) {
		t.Error("plain and adaptive estimates share a payload")
	}
	again := run(Request{Kind: KindEstimate, Trace: key, Warmup: "mru", TargetCI: 0.05})
	if !again.Cached || !bytes.Equal(again.Result, adaptive.Result) {
		t.Error("repeat adaptive estimate was not a byte-identical cache hit")
	}

	// Validation: out-of-range targets and non-estimate kinds are rejected.
	if _, err := m.Submit(Request{Kind: KindEstimate, Trace: key, TargetCI: -0.1}); err == nil {
		t.Error("negative target ci accepted")
	}
	if _, err := m.Submit(Request{Kind: KindEstimate, Trace: key, TargetCI: 1.5}); err == nil {
		t.Error("target ci >= 1 accepted")
	}
	if _, err := m.Submit(Request{Kind: KindAnalyze, Trace: key, TargetCI: 0.05}); err == nil {
		t.Error("target ci on an analyze job accepted")
	}
}
