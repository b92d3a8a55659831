package profile

import (
	"testing"

	"barrierpoint/internal/bbv"
	"barrierpoint/internal/ldv"
	"barrierpoint/internal/workload"
)

func TestRegionMatchesDirectCollection(t *testing.T) {
	p := workload.New("npb-ft", 8, workload.WithScale(0.1))
	r := p.Region(5)
	rd := Region(r, 8)
	for tid := 0; tid < 8; tid++ {
		wantBBV, wantInstrs := bbv.Collect(p.Region(5).Thread(tid))
		if rd.ThreadInstrs[tid] != wantInstrs {
			t.Errorf("thread %d instrs = %d, want %d", tid, rd.ThreadInstrs[tid], wantInstrs)
		}
		if bbv.ManhattanDistance(rd.BBV[tid], wantBBV) != 0 {
			t.Errorf("thread %d BBV mismatch", tid)
		}
		wantLDV := ldv.Collect(p.Region(5).Thread(tid))
		if rd.LDV[tid] != wantLDV {
			t.Errorf("thread %d LDV mismatch", tid)
		}
	}
}

func TestProgramParallelConsistent(t *testing.T) {
	p := workload.New("npb-is", 8, workload.WithScale(0.1))
	rds, err := Program(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rds) != p.Regions() {
		t.Fatalf("%d profiles for %d regions", len(rds), p.Regions())
	}
	// Every region profile equals a serially collected one.
	for i := 0; i < p.Regions(); i += 3 {
		want := Region(p.Region(i), p.Threads())
		if rds[i].TotalInstrs != want.TotalInstrs {
			t.Errorf("region %d total instrs differ", i)
		}
		for tid := 0; tid < p.Threads(); tid++ {
			if rds[i].LDV[tid] != want.LDV[tid] {
				t.Errorf("region %d thread %d LDV differs", i, tid)
			}
		}
	}
}

func TestTotalsAndWeights(t *testing.T) {
	p := workload.New("npb-ft", 8, workload.WithScale(0.1))
	rds, err := Program(p)
	if err != nil {
		t.Fatal(err)
	}
	weights := Weights(rds)
	var total uint64
	for i, rd := range rds {
		if weights[i] != float64(rd.TotalInstrs) {
			t.Errorf("weight %d mismatch", i)
		}
		var threads uint64
		for _, n := range rd.ThreadInstrs {
			threads += n
		}
		if rd.TotalInstrs != threads {
			t.Errorf("region %d: TotalInstrs = %d, threads sum to %d", i, rd.TotalInstrs, threads)
		}
		total += rd.TotalInstrs
	}
	if total == 0 {
		t.Error("empty program profile")
	}
}
