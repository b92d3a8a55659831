package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"barrierpoint/internal/bbv"
	"barrierpoint/internal/ldv"
	"barrierpoint/internal/signature"
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

// TestStoredProfileBytesPinned pins the encoded profile of every region of
// three shapes at ×0.1: streaming (npb-cg), scattered (npb-is) and many
// small regions (npb-lu). Profiles are content-addressed under
// signature.CodecVersion, so a profiler whose output drifts would be served
// from existing stores with no error; any change to what Region computes
// must fail here and bump the codec version.
func TestStoredProfileBytesPinned(t *testing.T) {
	for _, c := range []struct{ bench, sha string }{
		{"npb-cg", "d860b7331325852f01096df521847de3b6994b7847f34e5b0c7623de15d01a3b"},
		{"npb-is", "f0c3ffea40c5b6d05cfec91b01dcda7b1b44ca5a3568ea6cf711b4958700556d"},
		{"npb-lu", "5cbfc3d260bc6ee78161907f6afefa6cf553cb1202cc26d78c8996db88cf1ce0"},
	} {
		p := workload.New(c.bench, 8, workload.WithScale(0.1))
		rds, err := Program(p)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, rd := range rds {
			h.Write(signature.EncodeRegionData(rd))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.sha {
			t.Errorf("%s x0.1: %d region profiles hash to %s, want %s", c.bench, len(rds), got, c.sha)
		}
	}
}
