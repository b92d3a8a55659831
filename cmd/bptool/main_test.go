package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/campaign"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/service"
	"barrierpoint/internal/store"
)

// exec runs the tool with args and returns its stdout, failing on error.
func exec(t *testing.T, args ...string) string {
	t.Helper()
	var out, errOut strings.Builder
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%v) = %v\nstderr:\n%s", args, err, errOut.String())
	}
	return out.String()
}

// execErr runs the tool expecting failure and returns the error.
func execErr(t *testing.T, args ...string) error {
	t.Helper()
	var out, errOut strings.Builder
	err := run(args, &out, &errOut)
	if err == nil {
		t.Fatalf("run(%v) succeeded, want error\nstdout:\n%s", args, out.String())
	}
	return err
}

func TestListWorkloads(t *testing.T) {
	out := exec(t, "-list")
	for _, want := range []string{"npb-ft", "npb-is", "parsec-bodytrack"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestRecordInfoAnalyzePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full pipeline twice")
	}
	path := filepath.Join(t.TempDir(), "ft.bptrace")

	out := exec(t, "record", "-workload", "npb-ft", "-cores", "8", "-scale", "0.1", "-gzip", "-o", path)
	if !strings.Contains(out, "recorded npb-ft (8 threads, 34 regions)") {
		t.Errorf("record output unexpected:\n%s", out)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("record did not create the file: %v", err)
	}

	out = exec(t, "info", "-verify", path)
	for _, want := range []string{
		"program:     npb-ft",
		"threads:     8",
		"regions:     34",
		"compression: gzip",
		"integrity:   ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}

	// Analyze from the recording: the full pipeline, machine sized from
	// the file's thread count.
	out = exec(t, "-trace", path, "-warmup", "cold", "-skip-full")
	if !strings.Contains(out, "npb-ft, 8 threads: 34 regions") {
		t.Errorf("analyze-from-trace output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "Selected barrierpoints") || !strings.Contains(out, "estimate (cold warmup") {
		t.Errorf("analyze-from-trace output missing sections:\n%s", out)
	}
}

func TestRecordDefaultOutputPath(t *testing.T) {
	t.Chdir(t.TempDir())
	exec(t, "record", "-workload", "npb-is", "-cores", "8", "-scale", "0.1")
	if _, err := os.Stat("npb-is-8t.bptrace"); err != nil {
		t.Fatalf("default output file missing: %v", err)
	}
}

func TestAnalyzeWorkloadDirect(t *testing.T) {
	out := exec(t, "-workload", "npb-is", "-cores", "8", "-scale", "0.1", "-warmup", "mru", "-skip-full")
	if !strings.Contains(out, "npb-is, 8 threads") || !strings.Contains(out, "estimate (mru warmup") {
		t.Errorf("analyze output unexpected:\n%s", out)
	}
	// Every estimate carries error bars, even without -target-ci.
	if !strings.Contains(out, "±") || !strings.Contains(out, "95% confidence") {
		t.Errorf("estimate line has no confidence interval:\n%s", out)
	}
	if strings.Contains(out, "adaptive:") {
		t.Errorf("no -target-ci but adaptive promotion ran:\n%s", out)
	}
}

// TestAnalyzeAdaptive runs the acceptance example: a ±2% target on npb-ft
// promotes extra regions, reports the effort, and the final interval covers
// the ground-truth runtime.
func TestAnalyzeAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs adaptive promotion plus a full ground-truth simulation")
	}
	out := exec(t, "-workload", "npb-ft", "-cores", "8", "-scale", "0.25", "-warmup", "mru+prev", "-target-ci", "0.02")
	if !strings.Contains(out, "adaptive: simulated ") || !strings.Contains(out, "target ±2.00% met") {
		t.Errorf("adaptive run missing promotion report:\n%s", out)
	}
	if !strings.Contains(out, "CI covers actual: yes") {
		t.Errorf("±2%% interval does not cover the ground truth:\n%s", out)
	}
}

// TestAnalyzeWithCache drives the -cache flag twice over one recording:
// the first run computes and caches the selection, the second must reuse
// it from the store (the artifact layer shared with bpserve).
func TestAnalyzeWithCache(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "is.bptrace")
	cacheDir := filepath.Join(dir, "store")
	exec(t, "record", "-workload", "npb-is", "-cores", "8", "-scale", "0.05", "-o", tracePath)

	out := exec(t, "-trace", tracePath, "-cache", cacheDir, "-warmup", "cold", "-skip-full")
	if !strings.Contains(out, "selection computed and cached") {
		t.Errorf("first cached run output unexpected:\n%s", out)
	}
	if !strings.Contains(out, ", 0/") || !strings.Contains(out, "point results reused from cache") {
		t.Errorf("first cached run should report zero point reuse:\n%s", out)
	}

	out = exec(t, "-trace", tracePath, "-cache", cacheDir, "-warmup", "cold", "-skip-full")
	if !strings.Contains(out, "selection reused from cache") {
		t.Errorf("second cached run did not hit the store:\n%s", out)
	}
	// Point-simulation results cache too (shared with farm workers and
	// bpserve jobs): on the second run every point is a store hit.
	if strings.Contains(out, ", 0/") || !strings.Contains(out, "point results reused from cache") {
		t.Errorf("second cached run recomputed point results:\n%s", out)
	}

	// A built-in workload routes through the same store: identical content
	// recorded again lands on the same key and reuses the selection.
	out = exec(t, "-workload", "npb-is", "-cores", "8", "-scale", "0.05", "-cache", cacheDir, "-warmup", "cold", "-skip-full")
	if !strings.Contains(out, "selection reused from cache") {
		t.Errorf("workload run did not hit the cache of its identical recording:\n%s", out)
	}

	// bpserve's job manager and bpcamp's cell runner over that store go
	// through the binder bptool just went through: they find its selection
	// (no cold analysis) and its point results (the estimate is computed
	// from them), and the campaign cell binds the very bytes bptool cached.
	st, err := store.Open(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st.Traces()
	if err != nil || len(keys) != 1 {
		t.Fatalf("store holds traces %v (%v), want the one recording", keys, err)
	}
	key, cfg := keys[0], bp.DefaultConfig()
	want, err := service.CachedSelection(st, key, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := service.New(st, 2, 0)
	defer m.Shutdown(context.Background())
	cell := campaign.Cell{Workload: "npb-is", Threads: 8, Signature: "combine", Warmup: "cold", Scale: 0.05}
	res, err := (&campaign.ServiceRunner{M: m}).RunCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if stats := m.Stats(); res.TraceKey != key || stats.ColdAnalyses != 0 {
		t.Errorf("campaign cell over bptool's store: trace %.12s (want %.12s), %d cold analyses (want 0)", res.TraceKey, key, stats.ColdAnalyses)
	}
	if got, err := service.CachedSelection(st, key, cfg); err != nil || !bytes.Equal(got, want) {
		t.Errorf("selection artifact changed under the service and the campaign (%v)", err)
	}
	a, closer, cached, _, err := service.BindCached(st, key, cfg, nil, nil)
	if err != nil || !cached {
		t.Fatalf("binding bptool's selection: cached=%v err=%v", cached, err)
	}
	defer closer.Close()
	if res.SerialSpeedup != a.SerialSpeedup() || res.ParallelSpeedup != a.ParallelSpeedup() {
		t.Errorf("cell speedups %v / %v differ from the bound selection's %v / %v",
			res.SerialSpeedup, res.ParallelSpeedup, a.SerialSpeedup(), a.ParallelSpeedup())
	}

	// Each of the three on a store of its own computes those same bytes.
	for name, fill := range map[string]func(st *store.Store){
		"bpserve": func(st *store.Store) {
			m := service.New(st, 2, 0)
			defer m.Shutdown(context.Background())
			if _, _, err := st.ImportTrace(tracePath); err != nil {
				t.Fatal(err)
			}
			snap, err := m.Submit(service.Request{Kind: service.KindEstimate, Trace: key, Warmup: "cold"})
			if err == nil {
				snap, err = m.Wait(context.Background(), snap.ID)
			}
			if err != nil || snap.Status != service.StatusDone {
				t.Fatalf("estimate job: %+v, %v", snap, err)
			}
		},
		"bpcamp": func(st *store.Store) {
			m := service.New(st, 2, 0)
			defer m.Shutdown(context.Background())
			if _, err := (&campaign.ServiceRunner{M: m}).RunCell(cell); err != nil {
				t.Fatal(err)
			}
		},
	} {
		fresh, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fill(fresh)
		if got, err := service.CachedSelection(fresh, key, cfg); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s on its own store selected differently from bptool -cache (%v)", name, err)
		}
	}
}

func TestHelpIsNotAnError(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"record", "-h"}, {"info", "-h"}} {
		var out, errOut strings.Builder
		if err := run(args, &out, &errOut); err != nil {
			t.Errorf("run(%v) = %v, want nil (usage on stderr)", args, err)
		}
		if !strings.Contains(errOut.String(), "-workload") && !strings.Contains(errOut.String(), "-verify") {
			t.Errorf("run(%v) printed no usage:\n%s", args, errOut.String())
		}
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]string{
		"bad-warmup":          {"-workload", "npb-is", "-scale", "0.1", "-warmup", "nope"},
		"bad-cores":           {"-workload", "npb-is", "-cores", "7"},
		"zero-cores":          {"-workload", "npb-is", "-cores", "0"},
		"bad-record-cores":    {"record", "-workload", "npb-is", "-cores", "12"},
		"bad-workload":        {"-workload", "npb-zz", "-cores", "8"},
		"bad-record-workload": {"record", "-workload", "npb-zz"},
		"info-missing":        {"info", filepath.Join(dir, "nope.bptrace")},
		"info-no-arg":         {"info"},
		"bad-flag":            {"-definitely-not-a-flag"},
		"huge-target-ci":      {"-workload", "npb-is", "-scale", "0.1", "-target-ci", "1.5"},
		"negative-target-ci":  {"-workload", "npb-is", "-scale", "0.1", "-target-ci", "-0.1"},
		"zero-confidence":     {"-workload", "npb-is", "-scale", "0.1", "-confidence", "0"},
		"huge-confidence":     {"-workload", "npb-is", "-scale", "0.1", "-confidence", "1.2"},
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) { execErr(t, args...) })
	}

	// A non-trace file must be rejected cleanly.
	junk := filepath.Join(dir, "junk.bptrace")
	if err := os.WriteFile(junk, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := execErr(t, "info", junk); !strings.Contains(err.Error(), "tracefile") {
		t.Errorf("info on junk file: unexpected error %v", err)
	}
}

// TestTracePrintsSpanAttrs: bptool trace shows the job span's attributes,
// sorted, so "did this analysis read the trace file" is answerable from the
// terminal.
func TestTracePrintsSpanAttrs(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Snapshot{
			ID:     "job-000001",
			Status: service.StatusDone,
			Span: &obs.SpanData{Attrs: map[string]string{
				"region_digests": "index", "profiles_computed": "0", "profiles_cached": "503"}},
		})
	}))
	defer srv.Close()
	out := exec(t, "trace", "-server", srv.URL, "job-000001")
	if want := "attrs:    profiles_cached=503 profiles_computed=0 region_digests=index\n"; !strings.Contains(out, want) {
		t.Errorf("trace output lacks %q:\n%s", want, out)
	}
}
