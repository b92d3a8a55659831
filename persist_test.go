package barrierpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/store"
	"barrierpoint/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	prog := workload.New("npb-ft", 8, workload.WithScale(0.2))
	a, err := bp.Analyze(prog, bp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := bp.LoadSelection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s.Program != "npb-ft" || s.Threads != 8 || s.K != a.Selection.K {
		t.Errorf("metadata wrong: %+v", s)
	}
	bound, err := s.Bind(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Bound analysis estimates identically to the original.
	mc := bp.TableIMachine(1)
	e1, err := a.Estimate(mc, bp.MRUWarmup)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := bound.Estimate(mc, bp.MRUWarmup)
	if err != nil {
		t.Fatal(err)
	}
	if e1.TimeNs != e2.TimeNs {
		t.Errorf("bound estimate differs: %v vs %v", e1.TimeNs, e2.TimeNs)
	}
	if a.SerialSpeedup() != bound.SerialSpeedup() {
		t.Errorf("bound speedup differs: %v vs %v", a.SerialSpeedup(), bound.SerialSpeedup())
	}
	// The adaptive sampler's geometry survives the round trip: per-region
	// representative distances and per-cluster spreads.
	if len(s.RepDists) != prog.Regions() {
		t.Errorf("saved selection has %d rep distances for %d regions", len(s.RepDists), prog.Regions())
	}
	for i, d := range a.Selection.RepDists {
		if bound.Selection.RepDists[i] != d {
			t.Errorf("region %d: bound rep distance %v != original %v", i, bound.Selection.RepDists[i], d)
		}
	}
	for i, p := range a.Selection.Points {
		if bound.Selection.Points[i].Spread != p.Spread {
			t.Errorf("point %d: bound spread %v != original %v", i, bound.Selection.Points[i].Spread, p.Spread)
		}
	}
}

func TestBindValidation(t *testing.T) {
	prog := workload.New("npb-ft", 8, workload.WithScale(0.2))
	a, _ := bp.Analyze(prog, bp.DefaultConfig())
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s, _ := bp.LoadSelection(&buf)
	if _, err := s.Bind(workload.New("npb-is", 8, workload.WithScale(0.2))); err == nil {
		t.Error("binding to a different program accepted")
	}
	// Same shape, another name: the region count cannot catch it, the name
	// must — including the suffix a deleted trace transform used to append.
	for _, name := range []string{"npb-ft2", "npb-ft-coalesced"} {
		if _, err := s.Bind(renamed{prog, name}); err == nil {
			t.Errorf("binding to a program named %q accepted", name)
		}
	}
}

// renamed is a program under another name.
type renamed struct {
	bp.Program
	name string
}

func (r renamed) Name() string { return r.name }

// TestTraceKey checks that a trace files under one content key however it
// was recorded: SaveTrace and RecordTrace of one program give the same key
// (the SHA-256 of the file bytes the store addresses it by), and different
// bytes give a different one.
func TestTraceKey(t *testing.T) {
	prog := workload.New("npb-is", 8, workload.WithScale(0.05))
	path := filepath.Join(t.TempDir(), "is.bptrace")
	if err := bp.SaveTrace(path, prog); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fileKey, err := store.ReaderKey(bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bp.RecordTrace(&buf, prog); err != nil {
		t.Fatal(err)
	}
	readerKey, err := store.ReaderKey(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if fileKey != readerKey {
		t.Errorf("SaveTrace key %s != RecordTrace key %s for identical recordings", fileKey, readerKey)
	}
	if len(fileKey) != 64 {
		t.Errorf("key %q is not a hex SHA-256", fileKey)
	}

	var gz bytes.Buffer
	if err := bp.RecordTrace(&gz, prog, bp.WithTraceGzip(true)); err != nil {
		t.Fatal(err)
	}
	gzKey, err := store.ReaderKey(bytes.NewReader(gz.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if gzKey == fileKey {
		t.Error("different trace bytes produced the same key")
	}
}

func TestLoadSelectionErrors(t *testing.T) {
	if _, err := bp.LoadSelection(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
	bad := `{"program":"x","threads":8,"regions":2,"assignment":[0],"points":[],"region_instrs":[1,2]}`
	if _, err := bp.LoadSelection(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent selection accepted")
	}
	badPoint := `{"program":"x","threads":8,"regions":1,"assignment":[0],"points":[{"Region":5}],"region_instrs":[1]}`
	if _, err := bp.LoadSelection(strings.NewReader(badPoint)); err == nil {
		t.Error("out-of-range barrierpoint accepted")
	}
}
