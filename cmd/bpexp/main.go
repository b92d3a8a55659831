// Command bpexp regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	bpexp -exp fig4               # one experiment
//	bpexp -all                    # everything, in paper order
//	bpexp -all -scale 0.25        # scaled-down workloads (faster)
//	bpexp -exp fig9 -bench npb-sp # restrict the benchmark set
//	bpexp -all -markdown          # markdown tables (for EXPERIMENTS.md)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"barrierpoint/internal/experiments"
	"barrierpoint/internal/report"
	"barrierpoint/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bpexp: %v\n", err)
		os.Exit(2)
	}
}

type harness = experiments.Harness

// tableOf drops the per-row data of an experiment that returns it.
func tableOf[R any](f func(*harness) (R, *report.Table)) func(*harness) *report.Table {
	return func(h *harness) *report.Table {
		_, t := f(h)
		return t
	}
}

// experimentTables maps each -exp name to the table it renders.
var experimentTables = map[string]func(*harness) *report.Table{
	"table1":           (*harness).Table1,
	"table2":           (*harness).Table2,
	"table3":           (*harness).Table3,
	"fig1":             (*harness).Fig1,
	"fig3":             tableOf((*harness).Fig3),
	"fig4":             tableOf((*harness).Fig4),
	"fig5":             (*harness).Fig5,
	"fig6":             (*harness).Fig6,
	"fig7":             tableOf((*harness).Fig7),
	"fig8":             tableOf((*harness).Fig8),
	"fig9":             tableOf((*harness).Fig9),
	"ablation-scaling": (*harness).AblationScaling,
	"ablation-threads": (*harness).AblationThreads,
	"ablation-warmup":  (*harness).AblationWarmup,
	"scale-error":      tableOf((*harness).ScaleError),
}

// run parses flags and executes the requested experiments; it is the
// testable entry point of the tool.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bpexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "", "experiment to run: table1 table2 table3 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ablation-scaling ablation-threads ablation-warmup scale-error")
		all      = fs.Bool("all", false, "run every experiment in paper order")
		scale    = fs.Float64("scale", 1.0, "workload scale factor (1.0 = paper-shaped)")
		bench    = fs.String("bench", "", "comma-separated benchmark subset (default: all)")
		markdown = fs.Bool("markdown", false, "render tables as markdown")
		quiet    = fs.Bool("q", false, "suppress progress timing")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	// Validate before constructing anything: a non-positive scale yields
	// empty or degenerate workloads, and workload.New panics on unknown
	// names deep inside an experiment.
	if !(*scale > 0) { // also rejects NaN
		return fmt.Errorf("-scale must be > 0, got %v", *scale)
	}
	h := experiments.New(*scale)
	if *bench != "" {
		names := strings.Split(*bench, ",")
		for _, n := range names {
			if !workload.Exists(n) {
				return fmt.Errorf("unknown benchmark %q (known: %s)", n, strings.Join(workload.Names(), ", "))
			}
		}
		h.Benches = names
	}

	run1 := func(name string) error {
		table, ok := experimentTables[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q", name)
		}
		start := time.Now()
		if t := table(h); *markdown {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			t.Render(stdout)
			fmt.Fprintln(stdout)
		}
		if !*quiet {
			fmt.Fprintf(stderr, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}

	switch {
	case *all:
		for _, name := range []string{
			"table1", "table2", "fig1", "fig3", "fig4", "fig5", "fig6",
			"table3", "fig7", "fig8", "fig9",
			"ablation-scaling", "ablation-threads", "ablation-warmup",
		} {
			if err := run1(name); err != nil {
				return err
			}
		}
		return nil
	case *exp != "":
		return run1(*exp)
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -exp or -all")
	}
}
