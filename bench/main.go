// Command bench is the repository's end-to-end benchmark: it builds
// cmd/bpserve and cmd/bpworker from the checkout it is run in, starts them as
// subprocesses with their shipped defaults, and drives upload → analyze →
// estimate over HTTP from one closed-loop client, on four named workloads.
// See README.md for every metric and workload, and BENCHMARK.json at the
// repository root for the contract a run is held to.
//
// Usage, from the root of a checkout:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh -all [-runs N] [-seed n] [-seconds s] [-out file.json]
//	bash bench/run.sh -compare a.json b.json
//
// The first form is one run: it prints every metric by name with its unit
// and, as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics with tracing off; --trace 1 repeats the workload at a quarter of
// its reps with a span recorded at every layer boundary, runs the in-process
// layer probes, reports the per-layer metrics and writes
// bench/out/<workload>.trace.json. -all performs N untraced runs of every
// workload (seeds n, n+1, …) and one traced run of each. -compare judges
// two -out files metric by metric against each metric's own bound.
//
// It exits non-zero when an operation failed, an output was wrong, or a
// compared metric got worse.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (one of the names in BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "workload seed: orders the timed inputs")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		all      = flag.Bool("all", false, "run every workload: -runs untraced runs each, then one traced run each")
		runs     = flag.Int("runs", 1, "with -all: untraced runs per workload, on consecutive seeds")
		out      = flag.String("out", "", "write the records of this invocation to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	if _, err := loadContract(filepath.Join(root, "BENCHMARK.json")); err != nil {
		fmt.Fprintf(os.Stderr, "bench: run from the root of a checkout: %v\n", err)
		return 2
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		pass, err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		if !pass {
			return 1
		}
		return 0
	}

	outDir := filepath.Join(root, "bench", "out")
	binDir := filepath.Join(root, ".bench_build", "bin")
	build, err := buildBinaries(root, binDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}

	type job struct {
		spec  spec
		seed  int64
		trace bool
	}
	var jobs []job
	switch {
	case *all:
		for i := 0; i < *runs; i++ {
			for _, sp := range specs {
				jobs = append(jobs, job{sp, *seed + int64(i), false})
			}
		}
		for _, sp := range specs {
			jobs = append(jobs, job{sp, *seed, true})
		}
	default:
		sp, ok := specByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q; the workloads are:\n", *workload)
			for _, s := range specs {
				fmt.Fprintf(os.Stderr, "  %s\n", s.Name)
			}
			return 2
		}
		jobs = []job{{sp, *seed, *trace != 0}}
	}

	var recs []*record
	ok := true
	for _, j := range jobs {
		cfg := runConfig{
			Spec: j.spec, Seed: j.seed, Seconds: *seconds, Trace: j.trace,
			OutDir: outDir, BinDir: binDir, Setups: 3,
		}
		if j.trace {
			cfg.Setups = 1
		}
		rec, err := runWorkload(cfg, build.Seconds())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.spec.Name, err)
			return 2
		}
		recs = append(recs, rec)
		ok = ok && rec.Correct
		printTable(os.Stdout, rec)
		if !j.trace {
			// Kept for the traced run to measure its overhead against.
			if err := writeResults(resultPath(outDir, j.spec.Name), []*record{rec}); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			}
		}
	}
	if *out != "" {
		if err := writeResults(*out, recs); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
	}
	if !*all {
		fmt.Println(resultLine(recs[0]))
	}
	if !ok {
		return 1
	}
	return 0
}
