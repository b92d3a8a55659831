package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// golden compares bpexp's stdout for args against testdata/<name>.golden,
// rewriting the file under -update.
func golden(t *testing.T, name string, args ...string) {
	t.Helper()
	out, _ := exec(t, args...)
	path := filepath.Join("testdata", name+".golden")
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
		t.Fatalf("reading golden file (run `go test ./cmd/bpexp -run %s -update` to create): %v", t.Name(), err)
	}
	if out != string(want) {
		t.Errorf("bpexp %v output does not match %s:\n--- got ---\n%s\n--- want ---\n%s", args, path, out, want)
	}
}

// TestAllGolden pins every number bpexp -all prints on two benchmarks at
// scale 0.2: Figures 3-9, Table III and the ablations, byte for byte. A
// change that moves the paper's accuracy or speedup numbers regenerates the
// file with -update, on purpose.
func TestAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (a few seconds)")
	}
	golden(t, "all-x0.2-ft-lu", "-all", "-scale", "0.2", "-bench", "npb-ft,npb-lu", "-q")
}

// TestClusterErrorGolden pins the per-cluster error breakdown of the three
// benchmarks with the worst selection error at scale 0.2 (npb-lu 32c's
// cluster 0 alone makes 604.55 of its 632.43 points). A selection-rule change
// regenerates it with -update, on purpose, as it does TestAllGolden.
func TestClusterErrorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates three benchmarks in full (about a second)")
	}
	golden(t, "cluster-error-x0.2-lu-mg-ft", "-exp", "cluster-error", "-scale", "0.2", "-bench", "npb-lu,npb-mg,npb-ft", "-q")
}
