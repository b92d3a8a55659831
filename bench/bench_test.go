package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"barrierpoint/internal/tracefile"
)

// tinySpec is a cold workload small enough to generate in milliseconds.
var tinySpec = spec{
	Name: "tiny", Bench: "npb-ft", Scale: 0.02, Warmup: "mru", Exec: "local",
	RepsPerSecond: 1, WarmupReps: 2, RefTraces: 1, ErrCeilingPct: 1000, // tiny regions estimate badly
}

func shas(steps []step) []string {
	out := make([]string, len(steps))
	for i, st := range steps {
		out[i] = st.Trace.SHA
	}
	return out
}

func generated(t *testing.T, s spec, seed int64, seconds float64) plan {
	t.Helper()
	p := newPlan(s, seed, seconds)
	if err := p.generate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGeneratorDeterminism(t *testing.T) {
	a, b, c := generated(t, tinySpec, 1, 6), generated(t, tinySpec, 1, 6), generated(t, tinySpec, 2, 6)
	if len(a.Timed) != 6 || len(a.Warmup) != 2 {
		t.Fatalf("plan has %d warm-up and %d timed reps, want 2 and 6", len(a.Warmup), len(a.Timed))
	}
	if !reflect.DeepEqual(shas(a.Timed), shas(b.Timed)) || !reflect.DeepEqual(shas(a.Warmup), shas(b.Warmup)) {
		t.Error("the same seed gave different traces")
	}
	if !reflect.DeepEqual(shas(a.Warmup), shas(c.Warmup)) {
		t.Error("warm-up traces depend on the seed; the outputs checked on them would not repeat")
	}
	if reflect.DeepEqual(shas(a.Timed), shas(c.Timed)) {
		t.Error("a different seed gave the same timed order")
	}
	set := func(xs []string) map[string]bool {
		m := make(map[string]bool)
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	if !reflect.DeepEqual(set(shas(a.Timed)), set(shas(c.Timed))) {
		t.Error("a different seed changed the set of timed traces, not only their order")
	}

	// No region digest is shared between two traces of a run: every upload
	// is cold.
	seen := make(map[string]*traceInput)
	for _, tr := range a.Traces {
		distinct := 0
		if _, err := tracefile.DecodeStream(bytes.NewReader(tr.Data), func(rc tracefile.RegionChunks) error {
			prev, dup := seen[rc.Digest]
			if dup && prev != tr {
				t.Errorf("region %d of %s shares its digest with %s", rc.Index, tr, prev)
			}
			if !dup {
				distinct++
			}
			seen[rc.Digest] = tr
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if distinct != tr.Distinct || distinct == 0 {
			t.Errorf("%s: %d distinct region digests, generator recorded %d", tr, distinct, tr.Distinct)
		}
	}
}

func TestSweepPlan(t *testing.T) {
	sp, _ := specByName("warm-sweep")
	a, b := newPlan(sp, 1, 15), newPlan(sp, 2, 15)
	if len(a.Timed) != sp.timedReps(15) {
		t.Fatalf("sweep has %d timed cycles, want %d", len(a.Timed), sp.timedReps(15))
	}
	type cfg struct {
		slot int
		sig  string
		k    int
	}
	seen := make(map[cfg]bool)
	for _, st := range append(append([]step(nil), a.Warmup...), a.Timed...) {
		c := cfg{st.Trace.Slot, st.Signature, st.MaxK}
		if seen[c] {
			t.Errorf("configuration %+v appears twice; its second analyze would be a cache hit", c)
		}
		seen[c] = true
		if st.MaxK < sweepMinK || st.MaxK > sweepMaxK {
			t.Errorf("max_k %d outside [%d, %d]", st.MaxK, sweepMinK, sweepMaxK)
		}
	}
	same := true
	for i := range a.Timed {
		if a.Timed[i].MaxK != b.Timed[i].MaxK {
			same = false
		}
		if a.Timed[i].Trace.Slot != b.Timed[i].Trace.Slot || a.Timed[i].Signature != b.Timed[i].Signature {
			t.Fatalf("cycle %d visits a different (trace, signature) group under another seed", i)
		}
	}
	if same {
		t.Error("a different seed gave the same max_k order")
	}
	for i := range a.Warmup {
		if a.Warmup[i].MaxK != b.Warmup[i].MaxK || a.Warmup[i].Signature != b.Warmup[i].Signature {
			t.Error("warm-up cycles depend on the seed")
		}
	}
}

func TestMedianAndPercentiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of none = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}

	// The highest percentile with at least ten samples beyond it.
	for _, tc := range []struct {
		n     int
		level float64
	}{{99, 0}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		ys := make([]float64, tc.n)
		for i := range ys {
			ys[i] = float64(i)
		}
		if lvl, _ := tailPercentile(ys); lvl != tc.level {
			t.Errorf("tail of %d samples reported at p%v, want p%v", tc.n, lvl, tc.level)
		}
	}

	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([10, 11, 13], n=4) == [10.0, 11.0, 13.0]
	if q1, q3 := quartiles([]float64{13, 10, 11}); q1 != 10 || q3 != 13 {
		t.Errorf("quartiles of 3 samples = %v, %v, want 10, 13", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", Layer: "client", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", Layer: "service", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "b", Layer: "service", StartNs: 20, EndNs: 50}, // overlaps a
		{ID: 4, Parent: 1, Name: "c", Layer: "farm", StartNs: 90, EndNs: 120},   // runs past its parent
		{ID: 5, Parent: 3, Name: "d", Layer: "sim", StartNs: 25, EndNs: 45},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (40 + 10), // children cover [10,50) and [90,100)
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	by := selfByLayer(spans)
	for layer, wantNs := range map[string]float64{"client": 50, "service": 30, "sim": 20, "farm": 30} {
		if math.Abs(by[layer]*1e6-wantNs) > 1e-6 {
			t.Errorf("self time of layer %s = %v ns, want %v", layer, by[layer]*1e6, wantNs)
		}
	}

	var tr *tracer
	if id := tr.add(0, "", "x", "y", time.Time{}, time.Time{}); id != 0 || tr.all() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "pipeline_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	estErr := metricDef{Name: "est_error_pct", Better: "lower", Bound: 0.25}
	exact := func(v float64) []float64 { return []float64{v, v, v} }
	steady := func(center float64) []float64 {
		return []float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005}
	}
	noisy := func(center float64) []float64 {
		return []float64{center * 0.7, center * 0.9, center, center * 1.1, center * 1.3}
	}
	for _, tc := range []struct {
		name string
		def  metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady(100), steady(100), verdictWithin},
		{"slower inside the bound", lower, steady(100), steady(108), verdictWithin},
		{"slower beyond the bound", lower, steady(100), steady(115), verdictWorse},
		{"faster beyond the bound", lower, steady(100), steady(80), verdictBetter},
		{"throughput down", higher, steady(10), steady(8), verdictWorse},
		{"throughput up", higher, steady(10), steady(12), verdictBetter},
		{"spread wider than the bound", lower, noisy(100), noisy(105), verdictUnresolved},
		{"noisy, yet every run better", lower, noisy(100), noisy(40), verdictBetter},
		{"noisy, yet every run worse", lower, noisy(100), noisy(250), verdictWorse},
		{"error up 0.3 points", estErr, exact(23.58), exact(23.88), verdictWithin},
		{"error up 5.8 points, inside its share", estErr, exact(23.58), exact(29.4), verdictWorse},
		{"small error up 0.2 points, beyond its share", estErr, exact(0.59), exact(0.79), verdictWorse},
		{"error down a point", estErr, exact(9.19), exact(8.19), verdictBetter},
	} {
		if got := judge(tc.def, tc.a, tc.b).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}

	// End to end through files: a worse row or a failed operation fails the
	// comparison.
	dir := t.TempDir()
	mk := func(name string, pipeline float64, failed int) string {
		var recs []*record
		for i := 0; i < 5; i++ {
			recs = append(recs, &record{
				Workload: "cold-big-regions", Seed: int64(i), Failed: failed,
				Metrics: map[string]metricValue{"pipeline_ms": {pipeline * (1 + 0.002*float64(i)), "ms"}},
			})
		}
		path := filepath.Join(dir, name)
		if err := writeResults(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, broken := mk("a.json", 1600, 0), mk("b.json", 1610, 0), mk("c.json", 2100, 0), mk("d.json", 1600, 1)
	for _, tc := range []struct {
		b    string
		pass bool
		text string
	}{{same, true, verdictWithin}, {slow, false, verdictWorse}, {broken, false, "failed_ops: a 0, b 5"}} {
		var out bytes.Buffer
		pass, err := runCompare(&out, base, tc.b)
		if err != nil {
			t.Fatal(err)
		}
		if pass != tc.pass || !strings.Contains(out.String(), tc.text) {
			t.Errorf("compare with %s: pass=%v, want %v, output:\n%s", filepath.Base(tc.b), pass, tc.pass, out.String())
		}
	}
}

// benchmarkJSON is the contract the tests run under, loaded by TestMain.
var benchmarkJSON contract

func TestMain(m *testing.M) {
	var err error
	if benchmarkJSON, err = loadContract(filepath.Join("..", "BENCHMARK.json")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// TestBenchmarkJSON holds BENCHMARK.json to the limits of the benchmark
// contract that the code depends on; loadContract has already checked its
// keys and its workloads' names.
func TestBenchmarkJSON(t *testing.T) {
	bj := benchmarkJSON
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	for _, w := range bj.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	names := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), bj.EndToEnd...), bj.PerLayer...) {
		if names[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		names[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range bj.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !names["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, layer := range selfLayers {
		if !names["self."+layer+"_ms"] {
			t.Errorf("layer %q has no self.%s_ms metric", layer, layer)
		}
	}
}

// TestFailCheck: a failed check of the run itself counts as one operation
// attempted and failed.
func TestFailCheck(t *testing.T) {
	r := &runner{}
	r.failCheck("estimation error %.1f%% exceeds the ceiling", 31.0)
	if r.attempted != 1 || len(r.failures) != 1 || !strings.Contains(r.failures[0], "31.0%") {
		t.Errorf("attempted=%d failures=%q, want one of each", r.attempted, r.failures)
	}
}

// TestReferenceSpeed: the host-speed calibration walks one cycle through its
// whole working set, and a duration taken on a host running at half the
// reference speed is reported at half its length.
func TestReferenceSpeed(t *testing.T) {
	const n = 1000
	next := singleCycle(n, rand.New(rand.NewSource(1)))
	at, steps := uint32(0), 0
	for {
		at = next[at]
		steps++
		if at == 0 || steps > n {
			break
		}
	}
	if steps != n {
		t.Errorf("the chase returns to its start after %d steps, want %d", steps, n)
	}
	if got := refScale(calReferenceMs, calReferenceMs); got != 1 {
		t.Errorf("scale at reference speed = %v, want 1", got)
	}
	if got := refScale(2*calReferenceMs, 2*calReferenceMs); got != 0.5 {
		t.Errorf("scale at half speed = %v, want 0.5", got)
	}
	if got := refScale(calReferenceMs, 3*calReferenceMs); got != 0.5 {
		t.Errorf("scale between a reading of 1x and one of 3x the reference = %v, want 0.5", got)
	}
	if wall, cpu := newCalibrator().reading(); wall <= 0 || cpu <= 0 {
		t.Errorf("calibration reading = %v ms of wall clock, %v ms of CPU time", wall, cpu)
	}
}

// TestSmoke runs a tiny farmed workload end to end, untraced and traced:
// build, subprocess start, upload, job polling, correctness check, metric
// scrape, probes and shutdown.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts bpserve and bpworker subprocesses")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binDir := filepath.Join(dir, "bin")
	build, err := buildBinaries(root, binDir)
	if err != nil {
		t.Fatal(err)
	}
	smoke := tinySpec
	smoke.Name, smoke.Exec, smoke.Workers = "smoke", "farm", 1
	for _, traced := range []bool{false, true} {
		cfg := runConfig{
			Spec: smoke, Seed: 1, Seconds: 3, Trace: traced,
			OutDir: filepath.Join(dir, "out"), BinDir: binDir, Setups: 1,
		}
		if traced {
			cfg.Seconds = 12 // a quarter of it sizes the traced run: 3 reps again
		}
		rec, err := runWorkload(cfg, build.Seconds())
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d of %d: %v", traced, rec.Correct, rec.Failed, rec.Attempted, rec.Failures)
		}
		if rec.Reps != 3 {
			t.Errorf("traced=%v: %d reps completed, want 3", traced, rec.Reps)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		if len(rec.Metrics) != len(defs) {
			t.Errorf("traced=%v: %d metrics reported, want %d", traced, len(rec.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := rec.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("traced=%v: metric %s = %+v (present %v)", traced, d.Name, m, ok)
			}
			if !traced && m.Value <= 0 {
				t.Errorf("end-to-end metric %s = %v; must never be 0", d.Name, m.Value)
			}
		}
		if !traced {
			for _, name := range append([]string{"setup_s", "jobs_per_s", "cpu_ms_per_op"}, speedScaled...) {
				if rec.Measured[name] <= 0 {
					t.Errorf("metric %s reported at reference speed without its measured value", name)
				}
			}
			if n := len(rec.Raw["host.cal_ms"]); n != rec.Reps+1 {
				t.Errorf("%d host-speed readings for %d reps, want one before the first rep and one after each", n, rec.Reps)
			}
		}
		if traced {
			for _, name := range []string{"farm.task_ms", "farm.tasks_per_job", "store.put_profile_us", "sim.full_ms", "service.journal_appends", "self.farm_ms"} {
				if rec.Metrics[name].Value <= 0 {
					t.Errorf("per-layer metric %s = %v on a farmed run", name, rec.Metrics[name].Value)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.OutDir, "smoke.trace.json")); err != nil {
				t.Errorf("no trace file written: %v", err)
			}
		}
		if len(rec.Env.Commands) != 2 || rec.Env.NProc == 0 || rec.Env.GoVersion == "" || rec.Env.FSType == "" {
			t.Errorf("environment record incomplete: %+v", rec.Env)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(resultLine(rec)), &line); err != nil || len(line) != 4 {
			t.Errorf("result line has %d keys (%v), want exactly correct, attempted, failed, metrics", len(line), err)
		}
	}

	// A run whose estimation error is over its ceiling still ends in a
	// result, with the check counted as failed.
	smoke.ErrCeilingPct = -1
	rec, err := runWorkload(runConfig{
		Spec: smoke, Seed: 1, Seconds: 1, OutDir: filepath.Join(dir, "out"), BinDir: binDir, Setups: 1,
	}, build.Seconds())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Correct || rec.Failed != 1 || len(rec.Failures) != 1 || !strings.Contains(rec.Failures[0], "ceiling") {
		t.Errorf("error over the ceiling: correct=%v failed=%d: %v", rec.Correct, rec.Failed, rec.Failures)
	}
	if !strings.Contains(resultLine(rec), `"correct":false`) {
		t.Errorf("result line of a failed run: %s", resultLine(rec))
	}

	if left, _ := filepath.Glob(filepath.Join(dir, "out", "tmp", "*")); len(left) != 0 {
		t.Errorf("stores left behind: %v", left)
	}
}
