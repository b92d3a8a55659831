// Command bptool runs the BarrierPoint pipeline end to end on one workload
// and prints the selection, the estimate, and its accuracy against a full
// detailed simulation. It can also record workloads to binary trace files
// and analyze those recordings, so the expensive pipeline stages can run
// from disk, out of process.
//
// Usage:
//
//	bptool -workload npb-ft -cores 8
//	bptool -workload npb-sp -cores 32 -warmup mru -skip-full
//	bptool -workload npb-ft -cores 8 -target-ci 0.02
//	bptool -list
//	bptool record -workload npb-ft -cores 8 -gzip -o ft.bptrace
//	bptool info ft.bptrace
//	bptool info -verify ft.bptrace
//	bptool -trace ft.bptrace -skip-full
//	bptool -trace ft.bptrace -cache /var/lib/bpstore -skip-full
//	bptool trace -server http://bpserve:8080 <job-id>
//
// The trace subcommand fetches a job from a bpserve server and prints its
// telemetry span: the trace ID (shared with any farm tasks the job ran)
// and a per-stage timing breakdown.
//
// Every analysis runs the road a bpserve job runs: the trace (a built-in
// workload is recorded first) enters a content-addressed store through the
// upload's ingest pass, the selection is bound from the store, and point
// results are stored beside it. With -cache that store is a directory shared
// with bpserve: the first analyze of a trace profiles and clusters it, and
// every later analyze of byte-identical content reuses the cached selection
// and point results. Without it, the store is a temporary directory removed
// when the run ends.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/adaptive"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/report"
	"barrierpoint/internal/service"
	"barrierpoint/internal/stats"
	"barrierpoint/internal/store"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bptool: %v\n", err)
		os.Exit(1)
	}
}

// run dispatches subcommands; it is the testable entry point of the tool.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return runRecord(args[1:], stdout, stderr)
		case "info":
			return runInfo(args[1:], stdout, stderr)
		case "trace":
			return runTrace(args[1:], stdout, stderr)
		}
	}
	return runAnalyze(args, stdout, stderr)
}

// checkCores validates a thread/core count against the Table I machines.
func checkCores(cores int) error {
	if cores%8 != 0 || cores < 8 || cores > 64 {
		return fmt.Errorf("cores must be a multiple of 8 in [8, 64], got %d", cores)
	}
	return nil
}

// checkWorkload validates a benchmark name before construction
// (workload.New panics on unknown names), then its core count.
func checkWorkload(name string, cores int) error {
	if !workload.Exists(name) {
		return fmt.Errorf("unknown workload %q (see bptool -list)", name)
	}
	return checkCores(cores)
}

// parse wraps FlagSet.Parse, mapping -h/-help to a clean success.
func parse(fs *flag.FlagSet, args []string) (help bool, err error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return true, nil
		}
		return false, err
	}
	return false, nil
}

// runRecord records a built-in workload to a binary trace file.
func runRecord(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bptool record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name  = fs.String("workload", "npb-ft", "benchmark name (see bptool -list)")
		cores = fs.Int("cores", 8, "thread/core count (8 or 32 for Table I machines)")
		scale = fs.Float64("scale", 1.0, "workload scale factor")
		gz    = fs.Bool("gzip", false, "gzip-compress trace chunks")
		out   = fs.String("o", "", "output path (default <workload>-<cores>t.bptrace)")
	)
	if help, err := parse(fs, args); help || err != nil {
		return err
	}
	if err := checkWorkload(*name, *cores); err != nil {
		return err
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%dt.bptrace", *name, *cores)
	}

	prog := workload.New(*name, *cores, workload.WithScale(*scale))
	start := time.Now()
	if err := bp.SaveTrace(path, prog, bp.WithTraceGzip(*gz)); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %s (%d threads, %d regions) to %s: %.1f MB in %v\n",
		prog.Name(), prog.Threads(), prog.Regions(), path,
		float64(st.Size())/(1<<20), time.Since(start).Round(time.Millisecond))
	return nil
}

// runTrace fetches a job snapshot from a bpserve server and prints its
// telemetry span: trace ID, wall clock, the span's attributes (for an
// analysis: profiles_cached, profiles_computed, and region_digests = index
// when it read no chunk of the trace file) and the per-stage breakdown. The
// sequential stages partition the job's wall clock (the remainder prints
// as "(other)"); concurrent stages, like the job's trace-decode, overlap
// them and are listed separately.
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bptool trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8080", "bpserve base URL")
	if help, err := parse(fs, args); help || err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bptool trace [-server URL] <job-id>")
	}
	id := fs.Arg(0)

	resp, err := http.Get(strings.TrimRight(*server, "/") + "/v1/jobs/" + url.PathEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("fetching job %s: %s", id, resp.Status)
	}
	var snap service.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decoding job snapshot: %w", err)
	}

	fmt.Fprintf(stdout, "job:      %s (%s %.12s)\n", snap.ID, snap.Request.Kind, snap.Request.Trace)
	fmt.Fprintf(stdout, "status:   %s\n", snap.Status)
	if snap.Recovered {
		fmt.Fprintln(stdout, "recovered: true (replayed from the job journal after a restart)")
	}
	if snap.Error != "" {
		fmt.Fprintf(stdout, "error:    %s\n", snap.Error)
	}
	if snap.TraceID != "" {
		fmt.Fprintf(stdout, "trace ID: %s\n", snap.TraceID)
	}
	if snap.Span == nil {
		fmt.Fprintln(stdout, "no span recorded (job not started yet)")
		return nil
	}
	sp := snap.Span
	wall := time.Duration(sp.DurationNs)
	if sp.End.IsZero() {
		fmt.Fprintf(stdout, "running:  %v so far\n", time.Since(sp.Start).Round(time.Millisecond))
	} else {
		fmt.Fprintf(stdout, "wall:     %v\n", wall.Round(time.Microsecond))
	}
	attrs := make([]string, 0, len(sp.Attrs))
	for k, v := range sp.Attrs {
		attrs = append(attrs, k+"="+v)
	}
	if sort.Strings(attrs); len(attrs) > 0 {
		fmt.Fprintf(stdout, "attrs:    %s\n", strings.Join(attrs, " "))
	}
	fmt.Fprintf(stdout, "\n%-18s %12s %7s %6s\n", "stage", "time", "share", "count")
	var seqSum int64
	for _, st := range sp.Stages {
		if st.Concurrent {
			continue
		}
		seqSum += st.DurationNs
		share := ""
		if wall > 0 {
			share = fmt.Sprintf("%5.1f%%", 100*float64(st.DurationNs)/float64(sp.DurationNs))
		}
		fmt.Fprintf(stdout, "%-18s %12v %7s %6d\n",
			st.Name, time.Duration(st.DurationNs).Round(time.Microsecond), share, st.Count)
	}
	if rest := sp.DurationNs - seqSum; rest > 0 && wall > 0 {
		fmt.Fprintf(stdout, "%-18s %12v %6.1f%%\n",
			"(other)", time.Duration(rest).Round(time.Microsecond), 100*float64(rest)/float64(sp.DurationNs))
	}
	for _, st := range sp.Stages {
		if !st.Concurrent {
			continue
		}
		fmt.Fprintf(stdout, "%-18s %12v %7s %6d\n",
			st.Name+" ‖", time.Duration(st.DurationNs).Round(time.Microsecond), "", st.Count)
	}
	return nil
}

// runInfo prints the metadata and streamed statistics of a trace file.
func runInfo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bptool info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	verify := fs.Bool("verify", false, "fully decode every chunk to check integrity")
	if help, err := parse(fs, args); help || err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bptool info [-verify] <file.bptrace>")
	}
	path := fs.Arg(0)

	f, err := bp.OpenTrace(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := os.Stat(path)
	if err != nil {
		return err
	}

	compression := "none"
	if f.Gzipped() {
		compression = "gzip"
	}
	fmt.Fprintf(stdout, "program:     %s\n", f.Name())
	fmt.Fprintf(stdout, "threads:     %d\n", f.Threads())
	fmt.Fprintf(stdout, "regions:     %d\n", f.Regions())
	fmt.Fprintf(stdout, "compression: %s\n", compression)
	fmt.Fprintf(stdout, "file size:   %d bytes\n", st.Size())

	// Integrity first: a corrupt chunk silently truncates its stream (the
	// Stream interface has no error channel), so statistics computed below
	// would be garbage on a damaged file.
	if *verify {
		if err := f.Verify(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "integrity:   ok")
	}

	// Stream every region (never more than one in memory) for totals.
	var total, largest uint64
	largestRegion := 0
	for i := 0; i < f.Regions(); i++ {
		_, n := trace.RegionInstrs(f.Region(i), f.Threads())
		total += n
		if n > largest {
			largest, largestRegion = n, i
		}
	}
	fmt.Fprintf(stdout, "instructions: %d total", total)
	if f.Regions() > 0 {
		fmt.Fprintf(stdout, ", largest region %d with %d", largestRegion, largest)
	}
	fmt.Fprintln(stdout)
	return nil
}

// ingest files the run's input in st through the ingest pass bpserve runs
// on every upload (service.Manager.IngestTrace): the trace file at
// tracePath streams from disk, or else the built-in workload p is recorded
// through a pipe. Region profiles are computed as the bytes pass, and a
// trace whose chunks do not decode is never filed.
func ingest(st *store.Store, tracePath string, p bp.Program) (service.IngestResult, error) {
	m := service.New(st, 1, 1)
	defer m.Shutdown(context.Background())
	if tracePath == "" {
		return m.IngestProgram(p)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		return service.IngestResult{}, err
	}
	defer f.Close()
	return m.IngestTrace(f)
}

// runAnalyze is the classic pipeline: analyze, estimate, and (optionally)
// validate against a full simulation — from a built-in workload or from a
// recorded trace file.
func runAnalyze(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bptool", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "npb-ft", "benchmark name (see -list)")
		cores     = fs.Int("cores", 8, "thread/core count (8 or 32 for Table I machines)")
		scale     = fs.Float64("scale", 1.0, "workload scale factor")
		tracePath = fs.String("trace", "", "analyze a recorded trace file instead of a built-in workload")
		cacheDir  = fs.String("cache", "", "content-addressed store directory: cache and reuse analysis artifacts (shared with bpserve)")
		warmupFl  = fs.String("warmup", "mru+prev", "warmup mode: cold, mru, mru+prev")
		skipFull  = fs.Bool("skip-full", false, "skip the ground-truth simulation (no error report)")
		list      = fs.Bool("list", false, "list available workloads and exit")
		targetCI  = fs.Float64("target-ci", 0, "target relative confidence interval on the runtime estimate; promotes extra regions adaptively until met (0 disables)")
		confid    = fs.Float64("confidence", adaptive.DefaultConfidence, "confidence level for the estimate's error bars")
	)
	if help, err := parse(fs, args); help || err != nil {
		return err
	}
	if *targetCI < 0 || *targetCI >= 1 {
		return fmt.Errorf("-target-ci must be in [0, 1), got %v", *targetCI)
	}
	if !(*confid > 0 && *confid < 1) {
		return fmt.Errorf("-confidence must be in (0, 1), got %v", *confid)
	}

	if *list {
		for _, n := range workload.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
	}

	// One parser serves CLI and server, so both accept the same warmup
	// vocabulary over the shared store.
	mode, err := bp.ParseWarmup(*warmupFl)
	if err != nil {
		return err
	}
	var prog bp.Program
	if *tracePath == "" {
		if err := checkWorkload(*name, *cores); err != nil {
			return err
		}
		prog = workload.New(*name, *cores, workload.WithScale(*scale))
	}

	// Every analysis takes the road bpserve jobs and campaign cells take:
	// ingest into a content-addressed store, bind the selection the store
	// caches, and run points through the store's point results. With -cache
	// the store is shared with them and outlives the run; otherwise it is
	// this run's alone.
	dir := *cacheDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "bptool-store-*"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}

	start := time.Now()
	in, err := ingest(st, *tracePath, prog)
	if err != nil {
		return err
	}
	if err := checkCores(in.Threads); err != nil {
		return err
	}
	analysis, closer, cached, _, err := service.BindCached(st, in.Key, bp.DefaultConfig(), nil)
	if err != nil {
		return err
	}
	defer closer.Close()
	prog = analysis.Program
	mc := bp.TableIMachine(prog.Threads() / 8)
	var note string
	if *cacheDir != "" {
		note = ", selection computed and cached"
		if cached {
			note = ", selection reused from cache"
		}
		note += ", trace " + in.Key[:12]
	}
	fmt.Fprintf(stdout, "%s, %d threads: %d regions, %d barrierpoints (analysis in %v%s)\n\n",
		prog.Name(), prog.Threads(), prog.Regions(), len(analysis.Selection.Points),
		time.Since(start).Round(time.Millisecond), note)

	t := report.NewTable("Selected barrierpoints", "region", "multiplier", "weight")
	regions := make([]int, 0, len(analysis.Selection.Points))
	for _, p := range analysis.Selection.Points {
		t.AddRow(fmt.Sprintf("%d", p.Region), fmt.Sprintf("%.2f", p.Multiplier), fmt.Sprintf("%.4f", p.Weight))
		regions = append(regions, p.Region)
	}
	t.Render(stdout)

	fmt.Fprintf(stdout, "\nserial speedup %.1fx, parallel speedup %.1fx, resource reduction %.1fx\n",
		analysis.SerialSpeedup(), analysis.ParallelSpeedup(), analysis.ResourceReduction())
	fmt.Fprintf(stdout, "%s warmup simulates %d points in %d runs\n", mode, len(regions), len(bp.Runs(regions, mode)))

	start = time.Now()
	// Every estimate goes through the adaptive controller: with no target it
	// reproduces the standard one-rep-per-cluster reconstruction bit for bit
	// and just attaches error bars; with -target-ci it also promotes regions
	// until the runtime CI meets the target. Point results live in the
	// store, shared with later runs, bpserve jobs and farm workers over it —
	// and vice versa.
	runner := &farm.CachedRunner{St: st, TraceKey: in.Key, Inner: bp.LocalRunner{}}
	res, err := adaptive.Run(analysis, runner, mc, mode, adaptive.Options{TargetRel: *targetCI, Confidence: *confid})
	if err != nil {
		return err
	}
	est := res.Estimate.Estimate
	fmt.Fprintf(stdout, "\nestimate (%s warmup, %v, %d/%d point results reused from cache): runtime %s ms (±%s%% at %g%% confidence), IPC %.2f, DRAM APKI %.2f\n",
		mode, time.Since(start).Round(time.Millisecond), runner.Hits, runner.Hits+runner.Misses,
		report.FormatInterval(est.TimeNs/1e6, res.Estimate.Margin.TimeNs/1e6, 3),
		report.FormatMetric(res.Estimate.RelTime()*100, 2), *confid*100,
		est.IPC(), est.DRAMAPKI())
	if *targetCI > 0 {
		met := "met"
		if !res.Met {
			met = "not met, selection exhausted"
		}
		fmt.Fprintf(stdout, "adaptive: simulated %d/%d regions in %d rounds (initial ±%s%%, target ±%s%% %s)\n",
			len(res.Simulated), prog.Regions(), len(res.Rounds),
			report.FormatMetric(res.InitialRel*100, 2), report.FormatMetric(*targetCI*100, 2), met)
	}

	if *skipFull {
		return nil
	}
	start = time.Now()
	full, err := bp.SimulateFull(prog, mc)
	if err != nil {
		return err
	}
	act := bp.ActualFrom(full)
	fmt.Fprintf(stdout, "actual   (full simulation, %v): runtime %.3f ms, IPC %.2f, DRAM APKI %.2f\n",
		time.Since(start).Round(time.Millisecond), act.TimeNs/1e6, act.IPC(), act.DRAMAPKI())
	fmt.Fprintf(stdout, "runtime error %.2f%%, APKI difference %.3f\n",
		stats.AbsPctErr(est.TimeNs, act.TimeNs), est.DRAMAPKI()-act.DRAMAPKI())
	covers := "no"
	if res.Estimate.CoversTime(act.TimeNs) {
		covers = "yes"
	}
	fmt.Fprintf(stdout, "CI covers actual: %s\n", covers)
	return nil
}
