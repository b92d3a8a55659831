package experiments

import (
	"strings"
	"sync"
	"testing"

	bp "barrierpoint"
)

// testHarness is a fast harness: two small benchmarks at reduced scale.
func testHarness() *Harness {
	h := New(0.25)
	h.Benches = []string{"npb-ft", "npb-is"}
	return h
}

func TestHarnessCaching(t *testing.T) {
	h := testHarness()
	p1 := h.Program("npb-ft", 8)
	p2 := h.Program("npb-ft", 8)
	if p1 != p2 {
		t.Error("Program not cached")
	}
	f1 := h.Full("npb-ft", 8)
	f2 := h.Full("npb-ft", 8)
	if &f1[0] != &f2[0] {
		t.Error("Full not cached")
	}
	r1 := h.Profiles("npb-ft", 8)
	r2 := h.Profiles("npb-ft", 8)
	if r1[0] != r2[0] {
		t.Error("Profiles not cached")
	}
}

// TestHarnessCachingConcurrent: callers racing on a cold entry all get the
// one value the harness keeps.
func TestHarnessCachingConcurrent(t *testing.T) {
	h := testHarness()
	progs := make([]bp.Program, 8)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i] = h.Program("npb-is", 8)
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p != h.Program("npb-is", 8) {
			t.Errorf("caller %d got a program the harness did not keep", i)
		}
	}
}

func TestMachineSelection(t *testing.T) {
	h := testHarness()
	if h.Machine(8).Cores() != 8 || h.Machine(32).Cores() != 32 {
		t.Error("machine core counts wrong")
	}
}

func TestStaticTables(t *testing.T) {
	h := testHarness()
	t1 := h.Table1().String()
	for _, want := range []string{"2.66 GHz", "8 MB", "65 ns"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
	t2 := h.Table2().String()
	if !strings.Contains(t2, "15") || !strings.Contains(t2, "20") {
		t.Error("Table II missing dim/maxK")
	}
}

func TestFig1(t *testing.T) {
	h := testHarness()
	out := h.Fig1().String()
	if !strings.Contains(out, "npb-ft") || !strings.Contains(out, "34") {
		t.Errorf("Fig1 missing ft barrier count:\n%s", out)
	}
}

func TestFig3(t *testing.T) {
	h := testHarness()
	data, tbl := h.Fig3()
	if len(data) == 0 || tbl == nil {
		t.Fatal("empty Fig3")
	}
	anyBP := false
	for _, d := range data {
		if d.ActualIPC <= 0 {
			t.Errorf("region %d has non-positive IPC", d.Region)
		}
		if d.IsBarrierPoint {
			anyBP = true
		}
	}
	if !anyBP {
		t.Error("no barrierpoints marked")
	}
}

func TestFig4AndFig9(t *testing.T) {
	h := testHarness()
	rows, tbl := h.Fig4()
	if len(rows) != 2 {
		t.Fatalf("Fig4 rows = %d", len(rows))
	}
	if tbl.String() == "" {
		t.Error("empty Fig4 table")
	}
	// is is exactly reconstructible even at reduced scale.
	for _, r := range rows {
		if r.Bench == "npb-is" && r.RunErr[0] > 0.5 {
			t.Errorf("npb-is error %.2f%%", r.RunErr[0])
		}
	}
	frows, _ := h.Fig9()
	if len(frows) != 4 { // 2 benches × 2 core counts
		t.Fatalf("Fig9 rows = %d", len(frows))
	}
	for _, r := range frows {
		if r.SerialSpeedup < 1 || r.ParallelSpeedup < r.SerialSpeedup {
			t.Errorf("%s/%d: speedups inconsistent: %+v", r.Bench, r.Cores, r)
		}
	}
}

func TestFig8(t *testing.T) {
	h := testHarness()
	rows, _ := h.Fig8()
	for _, r := range rows {
		if r.Actual <= 0 || r.Predicted <= 0 {
			t.Errorf("%s: non-positive speedups %+v", r.Bench, r)
		}
		// At the reduced test scale regions are very short and warmup
		// error is amplified, so only order-of-magnitude agreement is
		// checked here; paper-shape agreement is validated at scale 1.
		rel := r.Predicted / r.Actual
		if rel < 0.3 || rel > 3 {
			t.Errorf("%s: predicted/actual scaling ratio %.2f", r.Bench, rel)
		}
	}
}

func TestTable3(t *testing.T) {
	h := testHarness()
	out := h.Table3().String()
	if !strings.Contains(out, "npb-is") {
		t.Error("Table III missing benchmarks")
	}
}

func TestFig6(t *testing.T) {
	h := testHarness()
	out := h.Fig6().String()
	if !strings.Contains(out, "npb-ft") {
		t.Errorf("Fig6 missing rows:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	h := testHarness()
	if out := h.AblationScaling().String(); !strings.Contains(out, "unscaled") {
		t.Error("scaling ablation malformed")
	}
	if out := h.AblationThreads().String(); !strings.Contains(out, "sum") {
		t.Error("threads ablation malformed")
	}
}

// TestScaleErrorMatchesFigures: at factor 1 the selection part is Fig. 4's
// error and selection plus warmup part is Fig. 7's, cell for cell.
func TestScaleErrorMatchesFigures(t *testing.T) {
	h := testHarness()
	rows, tbl := h.ScaleError()
	fig4, _ := h.Fig4()
	fig7, _ := h.Fig7()
	if len(rows) != len(fig4)*len(CoreCounts) {
		t.Fatalf("ScaleError rows = %d, want %d", len(rows), len(fig4)*len(CoreCounts))
	}
	for i, r := range rows {
		b, ci := i/len(CoreCounts), i%len(CoreCounts)
		if r.Bench != fig4[b].Bench || r.Cores != CoreCounts[ci] || len(r.Selection) != len(ScaleFactors) {
			t.Fatalf("row %d = %+v, want %s at %d cores over %d scales", i, r, fig4[b].Bench, CoreCounts[ci], len(ScaleFactors))
		}
		if r.Selection[0] != fig4[b].RunErr[ci] || r.Total[0] != fig7[b].RunErr[ci] {
			t.Errorf("%s/%d at factor 1: selection %v total %v, want Fig4 %v Fig7 %v",
				r.Bench, r.Cores, r.Selection[0], r.Total[0], fig4[b].RunErr[ci], fig7[b].RunErr[ci])
		}
	}
	if out := tbl.String(); !strings.Contains(out, "selection x0.05") || !strings.Contains(out, "average") {
		t.Errorf("scale-error table malformed:\n%s", out)
	}
}

func TestWarmupDefault(t *testing.T) {
	if New(1).Warmup != bp.MRUPrevWarmup {
		t.Error("default warmup is not MRU+prev")
	}
}
