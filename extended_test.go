package barrierpoint_test

import (
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/workload"
)

// TestEPDegenerate: a single-region program degenerates to one barrierpoint
// with multiplier 1 and exact reconstruction.
func TestEPDegenerate(t *testing.T) {
	prog := workload.New("npb-ep", 8, workload.WithScale(0.25))
	if prog.Regions() != 1 {
		t.Fatalf("ep has %d regions", prog.Regions())
	}
	mc := bp.TableIMachine(1)
	full, err := bp.SimulateFull(prog, mc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := bp.Analyze(prog, bp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := a.Selection.Points
	if len(pts) != 1 || pts[0].Multiplier != 1 || pts[0].Region != 0 {
		t.Fatalf("ep selection = %+v", pts)
	}
	est, err := a.EstimateFrom(a.PerfectWarmup(full))
	if err != nil {
		t.Fatal(err)
	}
	if est.TimeNs != bp.ActualFrom(full).TimeNs {
		t.Error("single-region reconstruction not exact")
	}
	if s := a.SerialSpeedup(); s != 1 {
		t.Errorf("ep serial speedup %v, want 1 (no sampling benefit)", s)
	}
}
