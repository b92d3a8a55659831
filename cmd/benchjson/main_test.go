package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: barrierpoint
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkProfiling              	      45	  22735103 ns/op	21747235 B/op	    4984 allocs/op
BenchmarkProfiling              	      44	  23146040 ns/op	21747243 B/op	    4986 allocs/op
BenchmarkRegionCacheReplay-8    	    1000	     91000 ns/op	       0 B/op	       0 allocs/op
BenchmarkTable1-8               	       2	 500000000 ns/op
BenchmarkAdaptiveTargetCI-8     	       4	 120000000 ns/op	         5.000 rounds/op	        29.00 points/op
BenchmarkAdaptiveTargetCI-8     	       4	 118000000 ns/op	         5.000 rounds/op	        27.00 points/op
PASS
ok  	barrierpoint	18.030s
`

func TestParse(t *testing.T) {
	o, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(o.Benchmarks), o.Benchmarks)
	}
	p := o.Benchmarks["BenchmarkProfiling"]
	if p.Samples != 2 || math.Abs(p.NsPerOp-22940571.5) > 1 || math.Abs(p.AllocsPerOp-4985) > 0.01 {
		t.Errorf("BenchmarkProfiling averaged wrong: %+v", p)
	}
	r := o.Benchmarks["BenchmarkRegionCacheReplay"]
	if r.Samples != 1 || r.NsPerOp != 91000 || r.AllocsPerOp != 0 {
		t.Errorf("BenchmarkRegionCacheReplay wrong: %+v", r)
	}
	if tb := o.Benchmarks["BenchmarkTable1"]; tb.NsPerOp != 5e8 {
		t.Errorf("BenchmarkTable1 wrong: %+v", tb)
	}
	if tb := o.Benchmarks["BenchmarkTable1"]; tb.Extra != nil {
		t.Errorf("BenchmarkTable1 has custom metrics: %+v", tb)
	}
	// Custom b.ReportMetric units average like the standard columns.
	ad := o.Benchmarks["BenchmarkAdaptiveTargetCI"]
	if ad.Samples != 2 || ad.Extra["rounds/op"] != 5 || ad.Extra["points/op"] != 28 {
		t.Errorf("BenchmarkAdaptiveTargetCI custom metrics wrong: %+v", ad)
	}
}

// TestParseKeepsRateUnits: a custom unit that is a rate rather than a per-op
// count is kept beside the per-op ones, and the standard columns around it
// still parse.
func TestParseKeepsRateUnits(t *testing.T) {
	const lines = `BenchmarkRunRegion-2          	       2	 527349538 ns/op	        21.25 Minstr/s	 3679464 B/op	    1609 allocs/op
BenchmarkRunRegion-2          	       2	 533010335 ns/op	        20.75 Minstr/s	 3679472 B/op	    1609 allocs/op
BenchmarkAdaptiveTargetCI-8   	       4	 120000000 ns/op	         5.000 rounds/op
`
	o, err := parse(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	r := o.Benchmarks["BenchmarkRunRegion"]
	if r.Samples != 2 || r.Extra["Minstr/s"] != 21 || r.AllocsPerOp != 1609 || len(r.Extra) != 1 {
		t.Errorf("BenchmarkRunRegion wrong: %+v", r)
	}
	if ad := o.Benchmarks["BenchmarkAdaptiveTargetCI"]; ad.Extra["rounds/op"] != 5 {
		t.Errorf("BenchmarkAdaptiveTargetCI wrong: %+v", ad)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n")); err == nil {
		t.Error("no-result input accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH.json")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-out", out, "-note", "test run"}, strings.NewReader(sample), &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var o Output
	if err := json.Unmarshal(b, &o); err != nil {
		t.Fatal(err)
	}
	if o.Note != "test run" || len(o.Benchmarks) != 4 {
		t.Errorf("document wrong: %+v", o)
	}
	if o.Benchmarks["BenchmarkAdaptiveTargetCI"].Extra["rounds/op"] != 5 {
		t.Errorf("custom metric lost in round-trip: %+v", o.Benchmarks["BenchmarkAdaptiveTargetCI"])
	}
}
