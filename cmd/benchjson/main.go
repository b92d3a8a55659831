// Command benchjson converts `go test -bench` output into a compact JSON
// benchmark record: op name → ns/op, B/op, allocs/op plus any custom
// b.ReportMetric units (averaged over repeated -count runs). It backs the
// CI benchmark artifact (BENCH_<n>.json) that seeds the project's
// measured-performance trajectory. It converts and nothing else: the
// -compare mode once planned here was never built, and comparing two runs
// is `bash bench/run.sh -compare a.json b.json` (bench/compare.go), which
// reads the end-to-end benchmark's records, not these.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem | go run ./cmd/benchjson -out BENCH_7.json
//	go run ./cmd/benchjson -in bench.txt -out BENCH_7.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// Metrics is the averaged record of one benchmark op.
type Metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Samples     int     `json:"samples"`
	// Extra holds custom b.ReportMetric units ("rounds/op",
	// "points/op", ...), averaged like the standard three, keyed by unit.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Output is the BENCH_<n>.json document shape.
type Output struct {
	Note       string             `json:"note,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in   = fs.String("in", "", "benchmark output file (default: stdin)")
		out  = fs.String("out", "", "JSON destination (default: stdout)")
		note = fs.String("note", "", "free-form note embedded in the document")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	src := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	o, err := parse(src)
	if err != nil {
		return err
	}
	o.Note = *note
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if *out != "" {
		return os.WriteFile(*out, b, 0o644)
	}
	_, err = stdout.Write(b)
	return err
}

// parse accumulates every benchmark result line of r, averaging repeated
// runs of the same op (go test -count=N emits one line per run).
func parse(r io.Reader) (Output, error) {
	type acc struct {
		ns, b, allocs float64
		extra         map[string]float64
		n             int
	}
	sums := make(map[string]*acc)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		// Benchmark<Name>-<procs>  N  <val> ns/op  [<val> B/op  <val> allocs/op]
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			name = name[:i]
		}
		a := sums[name]
		if a == nil {
			a = &acc{}
			sums[name] = a
		}
		got := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				a.ns += v
				got = true
			case "B/op":
				a.b += v
			case "allocs/op":
				a.allocs += v
			default:
				// b.ReportMetric emits "<val> <unit>/op" for custom units.
				if strings.HasSuffix(unit, "/op") {
					if a.extra == nil {
						a.extra = make(map[string]float64)
					}
					a.extra[unit] += v
				}
			}
		}
		if got {
			a.n++
		}
	}
	if err := sc.Err(); err != nil {
		return Output{}, err
	}
	if len(sums) == 0 {
		return Output{}, fmt.Errorf("no benchmark result lines found")
	}
	o := Output{Benchmarks: make(map[string]Metrics, len(sums))}
	for name, a := range sums {
		if a.n == 0 {
			continue
		}
		m := Metrics{
			NsPerOp:     a.ns / float64(a.n),
			BPerOp:      a.b / float64(a.n),
			AllocsPerOp: a.allocs / float64(a.n),
			Samples:     a.n,
		}
		if a.extra != nil {
			m.Extra = make(map[string]float64, len(a.extra))
			for unit, sum := range a.extra {
				m.Extra[unit] = sum / float64(a.n)
			}
		}
		o.Benchmarks[name] = m
	}
	return o, nil
}
