package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestAllGolden pins every number bpexp -all prints on two benchmarks at
// scale 0.2: Figures 3-9, Table III and the ablations, byte for byte. A
// change that moves the paper's accuracy or speedup numbers regenerates the
// file with -update, on purpose.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (a few seconds)")
	}
	out, _ := exec(t, "-all", "-scale", "0.2", "-bench", "npb-ft,npb-lu", "-q")
	path := filepath.Join("testdata", "all-x0.2-ft-lu.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run `go test ./cmd/bpexp -run TestAllGolden -update` to create): %v", err)
	}
	if out != string(want) {
		t.Errorf("bpexp -all output does not match %s:\n--- got ---\n%s\n--- want ---\n%s", path, out, want)
	}
}
