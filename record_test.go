package barrierpoint_test

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/workload"
)

// TestRecordedTraceEquivalence is the acceptance test for record/replay: a
// workload recorded to disk and re-opened must yield identical barrierpoint
// selections, identical ground-truth simulation results, and matching
// whole-program estimates compared to the in-memory run.
func TestRecordedTraceEquivalence(t *testing.T) {
	benches := []struct {
		name  string
		scale float64
		gzip  bool
	}{
		{"npb-ft", 0.1, true},
		{"npb-is", 0.1, false},
	}
	for _, bc := range benches {
		t.Run(bc.name, func(t *testing.T) {
			t.Parallel()
			prog := workload.New(bc.name, 8, workload.WithScale(bc.scale))
			path := filepath.Join(t.TempDir(), "trace.bptrace")
			if err := bp.SaveTrace(path, prog, bp.WithTraceGzip(bc.gzip)); err != nil {
				t.Fatal(err)
			}
			replay, err := bp.OpenTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			defer replay.Close()

			mc := bp.TableIMachine(1)

			// Ground truth is fully deterministic: regions simulate in
			// order on one machine, so replayed results must be
			// bit-identical to the in-memory ones.
			fullMem, err := bp.SimulateFull(prog, mc)
			if err != nil {
				t.Fatal(err)
			}
			fullReplay, err := bp.SimulateFull(replay, mc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fullMem, fullReplay) {
				t.Fatal("SimulateFull results differ between in-memory and replayed program")
			}

			// Selection: identical profiles feed the same seeded
			// clustering, so the chosen barrierpoints must match.
			aMem, err := bp.Analyze(prog, bp.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			aReplay, err := bp.Analyze(replay, bp.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if aMem.TotalInstrs() != aReplay.TotalInstrs() {
				t.Fatalf("total instrs differ: %d vs %d", aMem.TotalInstrs(), aReplay.TotalInstrs())
			}
			if !reflect.DeepEqual(aMem.Selection.Assignment, aReplay.Selection.Assignment) {
				t.Fatal("cluster assignments differ between in-memory and replayed analysis")
			}
			memPts, repPts := aMem.Selection.Points, aReplay.Selection.Points
			if len(memPts) != len(repPts) {
				t.Fatalf("selected %d barrierpoints from memory, %d from replay", len(memPts), len(repPts))
			}
			for i := range memPts {
				if memPts[i].Region != repPts[i].Region {
					t.Fatalf("barrierpoint %d: region %d from memory, %d from replay", i, memPts[i].Region, repPts[i].Region)
				}
				if math.Abs(memPts[i].Multiplier-repPts[i].Multiplier) > 1e-9*memPts[i].Multiplier {
					t.Fatalf("barrierpoint %d: multiplier %v vs %v", i, memPts[i].Multiplier, repPts[i].Multiplier)
				}
			}

			// Whole-program estimate. Point simulations are deterministic
			// per region; the reconstruction sums results in map iteration
			// order, so allow ulp-level float slack.
			estMem, err := aMem.Estimate(mc, bp.MRUWarmup)
			if err != nil {
				t.Fatal(err)
			}
			estReplay, err := aReplay.Estimate(mc, bp.MRUWarmup)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(estMem.TimeNs-estReplay.TimeNs) > 1e-9*estMem.TimeNs {
				t.Fatalf("estimated runtime differs: %v ns vs %v ns", estMem.TimeNs, estReplay.TimeNs)
			}
			if math.Abs(estMem.IPC()-estReplay.IPC()) > 1e-9*estMem.IPC() {
				t.Fatalf("estimated IPC differs: %v vs %v", estMem.IPC(), estReplay.IPC())
			}
		})
	}
}
