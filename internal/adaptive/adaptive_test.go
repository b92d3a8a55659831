package adaptive

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// ftAnalysis analyzes the ft workload at the scale the adaptive constants
// were calibrated on.
func ftAnalysis(t testing.TB) (*bp.Analysis, bp.Program) {
	t.Helper()
	prog := workload.New("npb-ft", 8, workload.WithScale(0.25))
	a, err := bp.Analyze(prog, bp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return a, prog
}

var tableI = bp.TableIMachine(1)

// TestIntervalsMatchPointEstimate: with exactly the representatives
// simulated, the interval estimate's center is bit-identical to the
// standard multiplier reconstruction — error bars attach to the existing
// estimate, they do not perturb it.
func TestIntervalsMatchPointEstimate(t *testing.T) {
	a, _ := ftAnalysis(t)
	results, err := a.SimulatePoints(tableI, bp.MRUPrevWarmup)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.EstimateFrom(results)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := Intervals(a.Selection, results, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ie.Estimate != want {
		t.Errorf("interval center %+v differs from reconstruction %+v", ie.Estimate, want)
	}
	if ie.Margin.TimeNs <= 0 {
		t.Error("runtime margin should be positive with unsimulated cluster members")
	}
	if ie.Confidence != DefaultConfidence {
		t.Errorf("confidence = %v, want default %v", ie.Confidence, DefaultConfidence)
	}
}

// TestIntervalsRequireEveryCluster: a missing representative is an error,
// not a silent zero contribution.
func TestIntervalsRequireEveryCluster(t *testing.T) {
	a, _ := ftAnalysis(t)
	results, err := a.SimulatePoints(tableI, bp.ColdWarmup)
	if err != nil {
		t.Fatal(err)
	}
	delete(results, a.Selection.Points[0].Region)
	if _, err := Intervals(a.Selection, results, Options{}); err == nil {
		t.Error("Intervals accepted a cluster with no simulated member")
	}
	orphaned := *a.Selection
	orphaned.Points = orphaned.Points[1:]
	if _, err := Intervals(&orphaned, results, Options{}); err == nil {
		t.Error("Intervals accepted regions assigned to a cluster with no barrierpoint")
	}
}

// TestRunDeterminism: the same trace, selection and target produce
// byte-identical promotion sequences and final estimates across runs.
func TestRunDeterminism(t *testing.T) {
	a, _ := ftAnalysis(t)
	run := func() *Result {
		res, err := Run(a, bp.LocalRunner{}, tableI, bp.MRUPrevWarmup, Options{TargetRel: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Estimate != r2.Estimate {
		t.Errorf("estimates differ:\n%+v\n%+v", r1.Estimate, r2.Estimate)
	}
	if !reflect.DeepEqual(r1.Simulated, r2.Simulated) {
		t.Errorf("simulated sets differ: %v vs %v", r1.Simulated, r2.Simulated)
	}
	if !reflect.DeepEqual(r1.Rounds, r2.Rounds) {
		t.Errorf("promotion rounds differ: %+v vs %+v", r1.Rounds, r2.Rounds)
	}
}

// TestFarmedMatchesLocal: the adaptive loop dispatched through a farm queue
// promotes the same regions in the same order and lands on a bit-identical
// estimate — the PointRunner bit-identity contract extends to promotions.
func TestFarmedMatchesLocal(t *testing.T) {
	a, prog := ftAnalysis(t)

	local, err := Run(a, bp.LocalRunner{}, tableI, bp.MRUPrevWarmup, Options{TargetRel: 0.02})
	if err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, prog); err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	q := farm.NewQueue(st, farm.Config{})
	defer q.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 3; i++ {
		go farm.RunLocalWorker(ctx, q, st, "w")
	}

	farmed, err := Run(a, farm.QueueRunner{Q: q, TraceKey: key}, tableI, bp.MRUPrevWarmup, Options{TargetRel: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if farmed.Estimate != local.Estimate {
		t.Errorf("farmed estimate differs from local:\n%+v\n%+v", farmed.Estimate, local.Estimate)
	}
	if !reflect.DeepEqual(farmed.Simulated, local.Simulated) {
		t.Errorf("farmed simulated %v != local %v", farmed.Simulated, local.Simulated)
	}
	if !reflect.DeepEqual(farmed.Rounds, local.Rounds) {
		t.Errorf("farmed rounds %+v != local %+v", farmed.Rounds, local.Rounds)
	}
}

// TestTargetReachedWithSavingsAndCoverage is the acceptance shape: a ±2%
// target on ft is met simulating strictly fewer regions than the program
// has, and the reported interval covers the ground-truth runtime.
func TestTargetReachedWithSavingsAndCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("ground-truth simulation skipped in -short mode")
	}
	a, prog := ftAnalysis(t)
	res, err := Run(a, bp.LocalRunner{}, tableI, bp.MRUPrevWarmup, Options{TargetRel: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatalf("±2%% target not met (final rel %.4f)", res.Estimate.RelTime())
	}
	if got := res.Estimate.RelTime(); got > 0.02 {
		t.Errorf("final relative CI %.4f exceeds target", got)
	}
	if len(res.Simulated) >= prog.Regions() {
		t.Errorf("simulated %d of %d regions: no sampling savings", len(res.Simulated), prog.Regions())
	}
	if len(res.Simulated) <= a.Selection.K {
		t.Errorf("simulated %d regions but selection already had %d points: no promotion happened", len(res.Simulated), a.Selection.K)
	}
	if res.InitialRel <= 0.02 {
		t.Errorf("initial rel CI %.4f already under target: promotion untested", res.InitialRel)
	}

	full, err := bp.SimulateFull(prog, tableI)
	if err != nil {
		t.Fatal(err)
	}
	actual := bp.ActualFrom(full)
	if !res.Estimate.CoversTime(actual.TimeNs) {
		t.Errorf("interval %v does not cover ground-truth runtime %v",
			res.Estimate.Time(), actual.TimeNs)
	}
}

// TestTighterTargetSimulatesMore: halving the target can only grow the
// simulated set, and the loose run's promotions are a prefix of the tight
// run's (the controller is deterministic, so a tighter target just keeps
// going).
func TestTighterTargetSimulatesMore(t *testing.T) {
	a, _ := ftAnalysis(t)
	loose, err := Run(a, bp.LocalRunner{}, tableI, bp.MRUPrevWarmup, Options{TargetRel: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Run(a, bp.LocalRunner{}, tableI, bp.MRUPrevWarmup, Options{TargetRel: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Simulated) <= len(loose.Simulated) {
		t.Errorf("tight target simulated %d regions, loose %d: want strictly more",
			len(tight.Simulated), len(loose.Simulated))
	}
	for i, round := range loose.Rounds {
		if !reflect.DeepEqual(round.Promoted, tight.Rounds[i].Promoted) {
			t.Errorf("round %d: loose promoted %v, tight %v — not a prefix", i, round.Promoted, tight.Rounds[i].Promoted)
		}
	}
}

// TestStoppingRuleSingletons: when every cluster has exactly one member
// there is nothing to promote — the controller halts immediately with the
// target unmet rather than spinning.
func TestStoppingRuleSingletons(t *testing.T) {
	prog := workload.New("npb-is", 8, workload.WithScale(0.25))
	cfg := bp.DefaultConfig()
	cfg.Cluster.MaxK = prog.Regions()
	a, err := bp.Analyze(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Selection.K != prog.Regions() {
		t.Skipf("clustering merged regions (K=%d of %d)", a.Selection.K, prog.Regions())
	}
	res, err := Run(a, bp.LocalRunner{}, tableI, bp.MRUPrevWarmup, Options{TargetRel: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 0 {
		t.Errorf("singleton clusters promoted %d rounds, want 0", len(res.Rounds))
	}
	if res.Met {
		t.Error("an unreachable target reported as met")
	}
	if len(res.Simulated) != prog.Regions() {
		t.Errorf("simulated %d regions, want all %d", len(res.Simulated), prog.Regions())
	}
	// Fully simulated: zero sampling variance, so the margin is exactly the
	// irreducible floor.
	if got, want := res.Estimate.RelTime(), DefaultRelFloor; got != want {
		t.Errorf("fully simulated rel CI %v, want floor %v", got, want)
	}
}

// TestExhaustionIsExact: an unreachable target drains every cluster; the
// fully simulated reconstruction scales by exactly 1.0, so the estimate
// equals the plain sum of the per-point results.
func TestExhaustionIsExact(t *testing.T) {
	a, prog := ftAnalysis(t)
	res, err := Run(a, bp.LocalRunner{}, tableI, bp.MRUPrevWarmup, Options{TargetRel: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Error("target below the floor reported as met")
	}
	if len(res.Simulated) != prog.Regions() {
		t.Fatalf("simulated %d of %d regions", len(res.Simulated), prog.Regions())
	}
	var flat []bp.RegionResult
	for r := 0; r < prog.Regions(); r++ {
		flat = append(flat, res.Results[r])
	}
	want := bp.ActualFrom(flat)
	if rel := (res.Estimate.TimeNs - want.TimeNs) / want.TimeNs; rel > 1e-9 || rel < -1e-9 {
		t.Errorf("fully simulated estimate %v differs from point sum %v (rel %v)",
			res.Estimate.TimeNs, want.TimeNs, rel)
	}
}

// TestNoTargetNoPromotion: TargetRel <= 0 computes intervals on the
// standard selection without promoting anything.
func TestNoTargetNoPromotion(t *testing.T) {
	a, _ := ftAnalysis(t)
	res, err := Run(a, bp.LocalRunner{}, tableI, bp.MRUPrevWarmup, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 0 || res.Met {
		t.Errorf("no-target run promoted %d rounds, met=%v", len(res.Rounds), res.Met)
	}
	if len(res.Simulated) != len(a.Selection.Points) {
		t.Errorf("simulated %d regions, want the %d selected points", len(res.Simulated), len(a.Selection.Points))
	}
}
