package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// resultLine is the last line of standard output: exactly the four keys the
// benchmark contract names.
func resultLine(rec *record) string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// printTable writes every metric by name with its unit, for a reader.
func printTable(w io.Writer, rec *record) {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v  reps %d  wall %.1fs\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Reps, rec.WallS)
	for _, d := range defs {
		line := fmt.Sprintf("  %-34s %14.4f %-8s", d.Name, rec.Metrics[d.Name].Value, d.Unit)
		if xs, ok := rec.Raw[d.Name]; ok {
			line += fmt.Sprintf("  n=%d", len(xs))
		}
		if m, ok := rec.Measured[d.Name]; ok {
			line += fmt.Sprintf("  measured=%.4f", m)
		}
		if t, ok := rec.Tails[d.Name]; ok {
			line += fmt.Sprintf("  p%g=%.4f", t.Percentile, t.Value)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if cal := rec.Raw["host.cal_ms"]; len(cal) > 0 {
		fmt.Fprintf(w, "  host speed: calibration pass %.4f ms of wall clock, %.4f ms of CPU time (medians of %d readings), reference %g ms\n",
			median(cal), median(rec.Raw["host.cal_cpu_ms"]), len(cal), calReferenceMs)
	}
	fmt.Fprintf(w, "  failed_ops %d / %d attempted\n", rec.Failed, rec.Attempted)
}
