package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// resultsFile is what -out writes and -compare reads: the records of one
// complete set of runs.
type resultsFile struct {
	Records []*record `json:"records"`
}

func writeResults(path string, recs []*record) error {
	b, err := json.MarshalIndent(resultsFile{Records: recs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readResults(path string) ([]*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rf.Records) == 0 {
		return nil, fmt.Errorf("%s holds no records", path)
	}
	return rf.Records, nil
}

// Verdicts of one (metric, workload) row.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// errSlackPoints is how many points est_error_pct may rise, against the
// first baseline (the workloads' ceilings) or between two compared sets.
const errSlackPoints = 0.5

// row is one (metric, workload) comparison.
type row struct {
	Metric, Workload string
	A, B             float64 // medians over the runs of each side
	Change           float64 // signed share of A by which B is worse (negative: better)
	Spread           float64 // the wider of the two sides' interquartile spreads
	Bound            float64
	Verdict          string
}

// judge applies a metric's own direction and bound to the untraced runs of
// two result sets. A row is worse when B's median loses more than the bound
// against A's; a change inside the bound — either way — is within bound, one
// beyond it the other way is better. Where the run-to-run spread of either
// side is wider than the bound the row is unresolved, unless every run of B
// reads better than every run of A (better) or worse than every run of A
// (worse).
//
// est_error_pct is simulated time and repeats exactly, so it is also held to
// errSlackPoints: its bound is that many points as a share of A's median
// where that is less than the share BENCHMARK.json gives it.
func judge(def metricDef, a, b []float64) row {
	r := row{Metric: def.Name, A: median(a), B: median(b), Bound: def.Bound, Spread: max(spread(a), spread(b))}
	if def.Name == "est_error_pct" && r.A > 0 {
		r.Bound = min(r.Bound, errSlackPoints/r.A)
	}
	sign := 1.0
	if def.Better == "higher" {
		sign = -1
	}
	if r.A != 0 {
		r.Change = sign * (r.B - r.A) / r.A
	}
	// worseThan reports whether x reads worse than y in the metric's direction.
	worseThan := func(x, y float64) bool { return sign*(x-y) > 0 }
	allB := func(pred func(x, y float64) bool) bool {
		for _, x := range b {
			for _, y := range a {
				if !pred(x, y) {
					return false
				}
			}
		}
		return true
	}
	switch {
	case r.Spread > r.Bound && allB(func(x, y float64) bool { return worseThan(y, x) }):
		r.Verdict = verdictBetter
	case r.Spread > r.Bound && allB(worseThan) && r.Change > r.Bound:
		r.Verdict = verdictWorse
	case r.Spread > r.Bound:
		r.Verdict = verdictUnresolved
	case r.Change > r.Bound:
		r.Verdict = verdictWorse
	case r.Change < -r.Bound:
		r.Verdict = verdictBetter
	default:
		r.Verdict = verdictWithin
	}
	return r
}

// compareResults judges every end-to-end metric on every workload both
// sets ran, and counts the operations that failed on each side.
func compareResults(a, b []*record) (rows []row, failedA, failedB int) {
	group := func(recs []*record) (map[string]map[string][]float64, int) {
		out := make(map[string]map[string][]float64)
		failed := 0
		for _, rec := range recs {
			failed += rec.Failed
			if rec.Trace {
				continue
			}
			if out[rec.Workload] == nil {
				out[rec.Workload] = make(map[string][]float64)
			}
			for name, m := range rec.Metrics {
				out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
			}
		}
		return out, failed
	}
	ga, failedA := group(a)
	gb, failedB := group(b)
	var workloads []string
	for w := range ga {
		if _, ok := gb[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	for _, def := range endToEnd {
		for _, w := range workloads {
			xa, xb := ga[w][def.Name], gb[w][def.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			r := judge(def, xa, xb)
			r.Workload = w
			rows = append(rows, r)
		}
	}
	return rows, failedA, failedB
}

// runCompare prints one row per (metric, workload) and reports whether the
// comparison passes: no row worse and no failed operation on either side.
func runCompare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	rows, failedA, failedB := compareResults(a, b)
	if len(rows) == 0 {
		return false, fmt.Errorf("%s and %s share no workload", pathA, pathB)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\ta\tb\tworse by\tspread\tbound\tverdict")
	pass := true
	for _, r := range rows {
		if r.Verdict == verdictWorse {
			pass = false
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%\t%s\n",
			r.Metric, r.Workload, r.A, r.B, r.Change*100, r.Spread*100, r.Bound*100, r.Verdict)
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "failed_ops: a %d, b %d\n", failedA, failedB)
	if failedA > 0 || failedB > 0 {
		pass = false
	}
	return pass, nil
}
