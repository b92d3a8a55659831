package campaign

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"barrierpoint/internal/farm"
	"barrierpoint/internal/service"
	"barrierpoint/internal/store"
)

// testSpec is a small 2-cell campaign (one workload, two warmup modes)
// that still exercises trace recording, both job kinds and the manifest.
func testSpec(name string) Spec {
	return Spec{
		Name:      name,
		Workloads: []string{"npb-is"},
		Threads:   []int{8},
		Warmups:   []string{"cold", "mru"},
		Scale:     0.05,
	}
}

func newStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newManager(t *testing.T, st *store.Store) *service.Manager {
	t.Helper()
	m := service.New(st, 2, 0)
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	return m
}

// metric reads one unlabeled series off the manager's registry, as
// /metrics serves it.
func metric(t *testing.T, m *service.Manager, name string) float64 {
	t.Helper()
	var text strings.Builder
	if err := m.Metrics().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if val, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", name)
	return 0
}

// renderAll renders the matrix in every format, concatenated, so one
// comparison covers text, markdown and JSON byte-identity at once.
func renderAll(t *testing.T, o *Outcome) string {
	t.Helper()
	var buf bytes.Buffer
	for _, f := range []string{"text", "markdown", "json"} {
		if err := RenderMatrix(&buf, o.Matrix(), f); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

func TestSpecValidate(t *testing.T) {
	good := testSpec("ok")
	good.ApplyDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := map[string]func(*Spec){
		"no-workloads":     func(s *Spec) { s.Workloads = nil },
		"unknown-workload": func(s *Spec) { s.Workloads = []string{"spec-gcc"} },
		"no-threads":       func(s *Spec) { s.Threads = nil },
		"bad-threads":      func(s *Spec) { s.Threads = []int{12} },
		"zero-scale":       func(s *Spec) { s.Scale = 0; s.ApplyDefaults(); s.Scale = 0 },
		"negative-scale":   func(s *Spec) { s.Scale = -1 },
		"bad-warmup":       func(s *Spec) { s.Warmups = []string{"lukewarm"} },
		"bad-signature":    func(s *Spec) { s.Signatures = []string{"tlbv"} },
		"bad-exec":         func(s *Spec) { s.Exec = "cluster" },
		"negative-sockets": func(s *Spec) { s.Sockets = []int{-1} },
		"orphan-sockets":   func(s *Spec) { s.Sockets = []int{4} }, // 32 cores, but only 8-thread traces
		"negative-ci":      func(s *Spec) { s.TargetCI = -0.1 },
		"huge-ci":          func(s *Spec) { s.TargetCI = 1.5 },
		"negative-max-k":   func(s *Spec) { s.MaxKs = []int{-3} },
		"perfect-warmup":   func(s *Spec) { s.Warmups = []string{"perfect"} },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := testSpec("bad")
			s.ApplyDefaults()
			mutate(&s)
			if err := s.Validate(); err == nil {
				t.Fatalf("invalid spec accepted: %+v", s)
			}
		})
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	_, err := Load(strings.NewReader(`{"workloads":["npb-is"],"threads":[8],"wormups":["cold"]}`))
	if err == nil || !strings.Contains(err.Error(), "wormups") {
		t.Fatalf("typo field accepted or unnamed: %v", err)
	}
}

func TestExpandDeterministic(t *testing.T) {
	s := Spec{
		Workloads:  []string{"npb-ft", "npb-is"},
		Threads:    []int{8, 32},
		Signatures: []string{"combine"},
		Warmups:    []string{"cold", "mru+prev"},
		Scale:      0.25,
	}
	s.ApplyDefaults()
	var ids []string
	for _, c := range s.Expand() {
		ids = append(ids, c.ID())
	}
	want := []string{
		"npb-ft-8t-s0-combine-cold", "npb-ft-8t-s0-combine-mru-prev",
		"npb-ft-32t-s0-combine-cold", "npb-ft-32t-s0-combine-mru-prev",
		"npb-is-8t-s0-combine-cold", "npb-is-8t-s0-combine-mru-prev",
		"npb-is-32t-s0-combine-cold", "npb-is-32t-s0-combine-mru-prev",
	}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("expand order:\n got %v\nwant %v", ids, want)
	}
}

func TestSpecHashIgnoresNameAndExec(t *testing.T) {
	a := testSpec("a")
	a.ApplyDefaults()
	b := testSpec("b")
	b.Exec = service.ExecFarm
	b.ApplyDefaults()
	if a.Hash() != b.Hash() {
		t.Fatal("name/exec changed the identity hash — farmed campaigns cannot resume local manifests")
	}
	c := testSpec("a")
	c.Scale = 0.1
	c.ApplyDefaults()
	if a.Hash() == c.Hash() {
		t.Fatal("scale change kept the identity hash — stale cells would be reused")
	}
	d := testSpec("a")
	d.TargetCI = 0.05
	d.ApplyDefaults()
	if a.Hash() == d.Hash() {
		t.Fatal("target_ci change kept the identity hash — adaptive and plain cells would share a manifest")
	}
}

// TestMaxKsAxis pins the compatibility contract of the max_ks sweep
// dimension: specs that don't use it hash and expand exactly as before
// the field existed (old manifests resume, old cell IDs match), while a
// sweep multiplies the grid and marks only the override cells.
func TestMaxKsAxis(t *testing.T) {
	a := testSpec("a")
	a.ApplyDefaults()
	// An empty (vs nil) slice must not move the hash either — both mean
	// "no sweep" and must resume pre-field manifests.
	b := testSpec("a")
	b.MaxKs = []int{}
	b.ApplyDefaults()
	if a.Hash() != b.Hash() {
		t.Fatal("empty max_ks changed the identity hash — old manifests would not resume")
	}
	c := testSpec("a")
	c.MaxKs = []int{7}
	c.ApplyDefaults()
	if a.Hash() == c.Hash() {
		t.Fatal("max_ks change kept the identity hash — stale clusterings would be reused")
	}

	// Without a sweep, cells carry MaxK 0 and their IDs have no -k suffix.
	for _, cell := range a.Expand() {
		if cell.MaxK != 0 || strings.Contains(cell.ID(), "-k") {
			t.Fatalf("default spec produced max-k cell %q", cell.ID())
		}
	}
	// A sweep multiplies the grid; only explicit overrides get the suffix.
	s := testSpec("sweep")
	s.MaxKs = []int{0, 7}
	s.ApplyDefaults()
	cells := s.Expand()
	if len(cells) != 2*len(a.Expand()) {
		t.Fatalf("2-value max_ks sweep produced %d cells, want %d", len(cells), 2*len(a.Expand()))
	}
	var ids []string
	for _, cell := range cells {
		ids = append(ids, cell.ID())
	}
	want := []string{
		"npb-is-8t-s0-combine-cold", "npb-is-8t-s0-combine-mru",
		"npb-is-8t-s0-combine-cold-k7", "npb-is-8t-s0-combine-mru-k7",
	}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("max_ks expand order:\n got %v\nwant %v", ids, want)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	st := newStore(t)
	spec := testSpec("round")
	spec.ApplyDefaults()
	m, err := LoadManifest(st, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 0 {
		t.Fatal("fresh manifest has cells")
	}
	m.Cells["some-cell"] = CellResult{RunErrPct: 1.5}
	m.Traces["npb-is/8"] = strings.Repeat("ab", 32)
	if err := m.Save(st); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadManifest(st, spec)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cells["some-cell"].RunErrPct != 1.5 || m2.Traces["npb-is/8"] == "" {
		t.Fatalf("manifest did not round-trip: %+v", m2)
	}
	// A manifest whose recorded hash mismatches its spec is refused.
	m2.Hash = "000000000000"
	if err := m2.Save(st); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(st, spec); err == nil {
		t.Fatal("hash-mismatched manifest accepted")
	}
}

// countingRunner wraps a CellRunner and counts computations per cell,
// forwarding the trace seeding hooks so manifests keep working.
type countingRunner struct {
	inner *ServiceRunner
	runs  map[string]int
}

func (r *countingRunner) RunCell(c Cell) (CellResult, error) {
	r.runs[c.ID()]++
	return r.inner.RunCell(c)
}
func (r *countingRunner) Seed(tr map[string]string) { r.inner.Seed(tr) }
func (r *countingRunner) Traces() map[string]string { return r.inner.Traces() }

// TestInterruptedCampaignResumesByteIdentical is the subsystem's
// acceptance test: a campaign stopped after its first completed cell (the
// on-disk state a SIGKILL between cells leaves behind) and resumed by a
// fresh process must produce a matrix byte-identical to an uninterrupted
// run, with the finished cell served from the manifest and never
// recomputed.
func TestInterruptedCampaignResumesByteIdentical(t *testing.T) {
	spec := testSpec("resume")

	// Reference: uninterrupted run in its own store.
	stA := newStore(t)
	outA, err := (&Runner{Store: stA, Cells: &ServiceRunner{M: newManager(t, stA)}}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if outA.Resumed != 0 || outA.Computed != 2 || outA.Incomplete {
		t.Fatalf("reference run: %+v", outA)
	}
	ref := renderAll(t, outA)

	// Interrupted run: a second store, stopped after one computed cell.
	stB := newStore(t)
	out1, err := (&Runner{Store: stB, Cells: &ServiceRunner{M: newManager(t, stB)}, MaxCells: 1}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Computed != 1 || !out1.Incomplete {
		t.Fatalf("interrupted run: %+v", out1)
	}
	doneID := out1.Cells[0].Cell.ID()

	// Resume with a fresh manager and runner — no in-process state
	// survives, exactly like a new process over the same store.
	counting := &countingRunner{inner: &ServiceRunner{M: newManager(t, stB)}, runs: map[string]int{}}
	out2, err := (&Runner{Store: stB, Cells: counting}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Resumed != 1 || out2.Computed != 1 || out2.Incomplete {
		t.Fatalf("resumed run: %+v", out2)
	}
	if n := counting.runs[doneID]; n != 0 {
		t.Fatalf("finished cell %s was recomputed %d times on resume", doneID, n)
	}
	if got := renderAll(t, out2); got != ref {
		t.Fatalf("resumed matrix differs from uninterrupted run:\n--- resumed ---\n%s\n--- reference ---\n%s", got, ref)
	}

	// A third run resumes everything and computes nothing.
	counting2 := &countingRunner{inner: &ServiceRunner{M: newManager(t, stB)}, runs: map[string]int{}}
	out3, err := (&Runner{Store: stB, Cells: counting2}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out3.Resumed != 2 || out3.Computed != 0 || len(counting2.runs) != 0 {
		t.Fatalf("fully-resumed run recomputed cells: %+v runs=%v", out3, counting2.runs)
	}
	if got := renderAll(t, out3); got != ref {
		t.Fatal("fully-resumed matrix differs from reference")
	}
}

// TestFarmedCampaignMatchesLocal: the same spec run locally and through
// the farm (two in-process workers on the distributed queue) must render
// byte-identical matrices.
func TestFarmedCampaignMatchesLocal(t *testing.T) {
	spec := testSpec("exec")

	stL := newStore(t)
	outL, err := (&Runner{Store: stL, Cells: &ServiceRunner{M: newManager(t, stL), Exec: service.ExecLocal}}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	stF := newStore(t)
	mF := newManager(t, stF)
	q := farm.NewQueue(stF, farm.Config{})
	mF.SetFarm(q)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go farm.RunLocalWorker(ctx, q, stF, "camp-test")
	}
	specF := spec
	specF.Exec = service.ExecFarm
	outF, err := (&Runner{Store: stF, Cells: &ServiceRunner{M: mF, Exec: service.ExecFarm}}).Run(specF)
	if err != nil {
		t.Fatal(err)
	}
	if got := metric(t, mF, "bp_jobs_farmed_total"); got != 2 {
		t.Fatalf("bp_jobs_farmed_total = %v, want 2 (one per cell estimate)", got)
	}
	if local, farmed := renderAll(t, outL), renderAll(t, outF); local != farmed {
		t.Fatalf("farmed matrix differs from local:\n--- farmed ---\n%s\n--- local ---\n%s", farmed, local)
	}
}

// TestAdaptiveCampaignCells: a spec with target_ci produces cells carrying
// confidence accounting, and the matrix renders the estimate with an error
// bar. Determinism still holds: two runs over fresh stores render
// byte-identically.
func TestAdaptiveCampaignCells(t *testing.T) {
	spec := testSpec("adaptive")
	spec.Warmups = []string{"mru"}
	spec.TargetCI = 0.2
	spec.ApplyDefaults()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	run := func() (*Outcome, string) {
		st := newStore(t)
		out, err := (&Runner{Store: st, Cells: &ServiceRunner{M: newManager(t, st), TargetCI: spec.TargetCI}}).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return out, renderAll(t, out)
	}
	out, ref := run()
	for _, co := range out.Cells {
		res := co.Result
		if res.CIRel <= 0 || res.CIHalfNs <= 0 {
			t.Fatalf("cell %s has no confidence interval: %+v", co.Cell.ID(), res)
		}
		if res.PointsSimulated <= 0 {
			t.Fatalf("cell %s reports no simulated points: %+v", co.Cell.ID(), res)
		}
		if res.TargetMet && res.CIRel > spec.TargetCI {
			t.Fatalf("cell %s met the target but rel CI %.4f exceeds %.4f", co.Cell.ID(), res.CIRel, spec.TargetCI)
		}
	}
	if !strings.Contains(ref, "±") {
		t.Fatal("adaptive matrix renders without error bars")
	}
	if _, again := run(); again != ref {
		t.Fatal("adaptive campaign matrices differ across fresh stores")
	}
}

// TestServiceRunnerRejectsPerfectWarmup: "perfect" is no warmup mode of the
// service, so a cell naming it fails instead of estimating.
func TestServiceRunnerRejectsPerfectWarmup(t *testing.T) {
	st := newStore(t)
	r := &ServiceRunner{M: newManager(t, st)}
	_, err := r.RunCell(Cell{Workload: "npb-is", Threads: 8, Signature: "combine", Warmup: "perfect", Scale: 0.05})
	if err == nil || !strings.Contains(err.Error(), "perfect") {
		t.Fatalf("perfect warmup accepted by the service runner: %v", err)
	}
}
