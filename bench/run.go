package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/service"
	"barrierpoint/internal/tracefile"
)

// runConfig is one invocation: a workload, its seed and duration, and where
// the checkout and the benchmark's scratch files live.
type runConfig struct {
	Spec    spec
	Seed    int64
	Seconds float64
	Trace   bool

	OutDir string // logs, stores, trace and result files
	BinDir string
	// Setups is how many times set-up runs; setup_s is the median. The
	// benchmark contract asks for exactly that ("set up several times in a
	// run and report the median"), so an untraced run pays for three.
	Setups int
}

// env records where a run happened.
type env struct {
	NProc     int        `json:"nproc"`
	GoVersion string     `json:"go_version"`
	FSType    string     `json:"fs_type"`
	Commands  [][]string `json:"commands"`
}

// record is everything one run measured. The contract's result line is the
// four fields Correct, Attempted, Failed and Metrics.
type record struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Measured holds, for each metric reported at reference host speed, the
	// same statistic of the samples as the clock read them.
	Measured map[string]float64 `json:"measured,omitempty"`
	// Tails is the highest percentile with at least ten samples beyond it,
	// for the latencies that have one.
	Tails map[string]tail `json:"tails,omitempty"`
	// Raw holds the samples behind each median, in the order taken, in the
	// metric's unit and as measured; host.cal_ms is the host-speed reading
	// before the first rep and after each one.
	Raw      map[string][]float64 `json:"raw,omitempty"`
	Reps     int                  `json:"reps"`
	WallS    float64              `json:"wall_s"` // the whole run, set-up to teardown
	Failures []string             `json:"failures,omitempty"`
	Env      env                  `json:"env"`
}

type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
}

// runner carries one run's state through its phases.
type runner struct {
	cfg runConfig
	cl  *fleet
	c   *client
	tr  *tracer // nil unless cfg.Trace

	attempted int
	failures  []string

	samples map[string][]float64 // metric → timed samples, as measured
	atRef   map[string][]float64 // the speedScaled ones again, at reference host speed
	cal     *calibrator
	timing  bool // inside the timed phase

	// Outputs of the warm-up reps, by trace: what the reference phase and
	// the correctness check compare against.
	estimates map[*traceInput]estimateResult
	keys      map[*traceInput]string

	// Traced run only.
	jobs       []jobObs
	pointSpans map[string]int // job trace ID → its simulate-points span
}

// jobObs is what the traced run keeps of one finished job.
type jobObs struct {
	snap     service.Snapshot
	observed time.Time     // when the client saw it done
	latency  time.Duration // submit → observed done
}

// fail marks the operation just attempted as failed.
func (r *runner) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.failures = append(r.failures, msg)
	fmt.Fprintf(os.Stderr, "bench: FAILED: %s\n", msg)
}

// failCheck counts a check of the run itself — one that is not an upload or
// a job — as an operation that failed.
func (r *runner) failCheck(format string, args ...any) {
	r.attempted++
	r.fail(format, args...)
}

// spans returns the tracer while the timed phase of a traced run is on, and
// nil — which records nothing — otherwise: warm-up, reference and check jobs
// stay out of the per-rep self times.
func (r *runner) spans() *tracer {
	if r.timing {
		return r.tr
	}
	return nil
}

func (r *runner) sample(metric string, d time.Duration) {
	if r.timing {
		r.samples[metric] = append(r.samples[metric], float64(d.Nanoseconds())/1e6)
	}
}

// job submits req and waits for it, counting one operation. It returns the
// terminal snapshot and the submit→done latency the client observed.
func (r *runner) job(parent int, req service.Request) (service.Snapshot, time.Duration, bool) {
	r.attempted++
	t0 := time.Now()
	snap, err := r.c.submit(req)
	t1 := time.Now()
	if err != nil {
		r.fail("submit %s: %v", req.Kind, err)
		return snap, 0, false
	}
	r.spans().add(parent, snap.TraceID, "client.submit", "bpserve.submit", t0, t1)
	snap, err = r.c.wait(snap.ID)
	t2 := time.Now()
	if err != nil {
		r.fail("%s job on %.12s: %v", req.Kind, req.Trace, err)
		return snap, 0, false
	}
	if tr := r.spans(); tr != nil {
		wait := tr.add(parent, snap.TraceID, "client.wait", "client", t1, t2)
		r.importJob(wait, snap)
		r.jobs = append(r.jobs, jobObs{snap: snap, observed: t2, latency: t2.Sub(t0)})
	}
	return snap, t2.Sub(t0), true
}

// speedScaled are the latencies reported at reference host speed (see
// calibrator): each sample is multiplied by calReferenceMs over the mean of
// the host-speed readings taken just before and just after its rep.
var speedScaled = []string{"pipeline_ms", "upload_ms", "analyze_ms", "estimate_ms", "rep_ms"}

// refScale turns a duration measured between two host-speed readings into
// the duration at reference speed.
func refScale(before, after float64) float64 {
	return calReferenceMs / ((before + after) / 2)
}

// cachedRepeats is how many times a rep re-submits each of its estimates
// unchanged: enough that the workload with the fewest reps still has some
// forty cached-job samples in a run.
const cachedRepeats = 5

// rep runs one step of the closed loop: upload, analyze, one fresh estimate
// per warm-up mode, then each estimate cachedRepeats times again unchanged.
// It reports whether every operation succeeded.
func (r *runner) rep(st step) bool {
	sp := r.cfg.Spec
	repStart := time.Now()
	tr := r.spans()
	root := tr.add(0, "", "rep", "client", repStart, repStart)
	if tr != nil {
		defer func() { tr.end(root, time.Now()) }()
	}

	r.attempted++
	up, err := r.c.upload(st.Trace.Data)
	upDone := time.Now()
	if err != nil {
		r.fail("upload %s: %v", st.Trace, err)
		return false
	}
	tr.add(root, "", "client.upload", "bpserve.upload", repStart, upDone)
	switch {
	case up.Key != st.Trace.SHA:
		r.fail("upload %s: server key %.12s, file hash %.12s", st.Trace, up.Key, st.Trace.SHA)
		return false
	case st.Fresh && (up.Existed || up.Ingest.ProfilesComputed < st.Trace.Distinct):
		// Two ingest workers may profile the same new digest at once, so
		// computed can exceed the distinct count; it can never fall short
		// of it on a cold upload.
		r.fail("upload %s was not cold: existed=%v profiles computed=%d, distinct regions %d of %d",
			st.Trace, up.Existed, up.Ingest.ProfilesComputed, st.Trace.Distinct, up.Regions)
		return false
	case !st.Fresh && (!up.Existed || up.Ingest.ProfilesComputed != 0):
		r.fail("re-upload %s was not warm: existed=%v profiles computed=%d",
			st.Trace, up.Existed, up.Ingest.ProfilesComputed)
		return false
	}
	r.sample("upload_ms", upDone.Sub(repStart))
	if r.timing {
		r.samples["store.profile_puts"] = append(r.samples["store.profile_puts"], float64(up.Ingest.ProfilesComputed))
	}
	r.keys[st.Trace] = up.Key

	base := service.Request{Trace: up.Key, Signature: st.Signature, MaxK: st.MaxK}
	areq := base
	areq.Kind = service.KindAnalyze
	snap, d, ok := r.job(root, areq)
	if !ok {
		return false
	}
	if snap.Cached {
		r.fail("analyze of %.12s (%s, max_k %d) was served from cache", up.Key, st.Signature, st.MaxK)
		return false
	}
	r.sample("analyze_ms", d)

	ereqs := make([]service.Request, len(st.Warmups))
	for i, w := range st.Warmups {
		ereq := base
		ereq.Kind, ereq.Warmup, ereq.Exec = service.KindEstimate, w, sp.Exec
		ereqs[i] = ereq
		snap, d, ok := r.job(root, ereq)
		if !ok {
			return false
		}
		if snap.Cached {
			r.fail("estimate of %.12s (%s) was served from cache", up.Key, w)
			return false
		}
		r.sample("estimate_ms", d)
		if w == sp.Warmup && st.MaxK == 0 {
			est, err := parseEstimate(snap.Result)
			if err != nil {
				r.fail("estimate of %.12s: %v", up.Key, err)
				return false
			}
			r.estimates[st.Trace] = est
		}
	}
	r.sample("pipeline_ms", time.Since(repStart))

	for _, ereq := range ereqs {
		for i := 0; i < cachedRepeats; i++ {
			snap, d, ok := r.job(root, ereq)
			if !ok {
				return false
			}
			if !snap.Cached {
				r.fail("repeat estimate of %.12s (%s) was recomputed", up.Key, ereq.Warmup)
				return false
			}
			r.sample("cached_job_ms", d)
		}
	}
	return true
}

// timedPhase runs the timed script, cut short only if it overruns budget,
// with a host-speed reading before the first rep and after each one, and
// returns the reps completed. Every speedScaled sample of a rep, and the
// rep's whole duration (rep_ms), is filed at reference speed too.
func (r *runner) timedPhase(script []step, budget time.Duration) (reps int, err error) {
	start := time.Now()
	read := func() float64 {
		wall, cpu := r.cal.reading()
		r.samples["host.cal_ms"] = append(r.samples["host.cal_ms"], wall)
		r.samples["host.cal_cpu_ms"] = append(r.samples["host.cal_cpu_ms"], cpu)
		return wall
	}
	before := read()
	mark := make(map[string]int, len(speedScaled))
	for _, st := range script {
		if time.Since(start) >= budget {
			break
		}
		for _, name := range speedScaled {
			mark[name] = len(r.samples[name])
		}
		t0 := time.Now()
		if r.rep(st) {
			reps++
			r.sample("rep_ms", time.Since(t0))
		}
		if !r.cl.alive() {
			return reps, errChildExited
		}
		after := read()
		scale := refScale(before, after)
		for _, name := range speedScaled {
			for _, x := range r.samples[name][mark[name]:] {
				r.atRef[name] = append(r.atRef[name], x*scale)
			}
		}
		before = after
	}
	return reps, nil
}

// setUp generates the plan's traces, starts the cluster and, for the warm
// workload, uploads and default-analyzes its traces.
func setUp(cfg runConfig, tag string) (plan, *fleet, error) {
	seconds := cfg.Seconds
	if cfg.Trace {
		seconds /= 4 // the traced run repeats the workload at a quarter of its reps
	}
	p := newPlan(cfg.Spec, cfg.Seed, seconds)
	if err := p.generate(); err != nil {
		return p, nil, err
	}
	cl, err := startFleet(cfg, tag)
	if err != nil {
		return p, nil, err
	}
	c := newClient(cl.base, cfg.Seed)
	for _, t := range p.Preload {
		up, err := c.upload(t.Data)
		if err != nil {
			cl.kill()
			return p, nil, fmt.Errorf("preloading %s: %w", t.Bench, err)
		}
		snap, err := c.submit(service.Request{Kind: service.KindAnalyze, Trace: up.Key})
		if err == nil {
			_, err = c.wait(snap.ID)
		}
		if err != nil {
			cl.kill()
			return p, nil, fmt.Errorf("pre-analyzing %s: %w", t.Bench, err)
		}
	}
	return p, cl, nil
}

// runWorkload performs one complete run and returns its record. An error
// means the run could not be carried out at all (build, start-up, a child
// dying); operations that fail during a run are counted in the record.
func runWorkload(cfg runConfig, buildSeconds float64) (*record, error) {
	sp := cfg.Spec
	runStart := time.Now()
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times over: only the last cluster is kept.
	var (
		p                 plan
		cl                *fleet
		setups, setupsRef []float64
	)
	cal := newCalibrator()
	for i := 0; i < cfg.Setups; i++ {
		if cl != nil {
			cl.stop()
		}
		before, _ := cal.reading()
		t0 := time.Now()
		var err error
		p, cl, err = setUp(cfg, fmt.Sprintf("%s-%d", sp.Name, os.Getpid()))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0).Seconds()
		after, _ := cal.reading()
		setups = append(setups, d)
		setupsRef = append(setupsRef, d*refScale(before, after))
	}
	stopped := false
	defer func() {
		if !stopped {
			cl.kill()
		}
	}()

	r := &runner{
		cfg: cfg, cl: cl, c: newClient(cl.base, cfg.Seed), cal: cal,
		samples:    make(map[string][]float64),
		atRef:      make(map[string][]float64),
		estimates:  make(map[*traceInput]estimateResult),
		keys:       make(map[*traceInput]string),
		pointSpans: make(map[string]int),
	}
	if cfg.Trace {
		r.tr = newTracer()
	}
	rec := &record{
		Workload: sp.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Env: env{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), FSType: fsType(cfg.OutDir), Commands: cl.commands()},
	}

	// Warm-up: same inputs whatever the seed, not timed.
	for _, st := range p.Warmup {
		r.rep(st)
	}
	if !cl.alive() {
		return nil, errChildExited
	}

	// Timed phase: a fixed script, cut short only if it overruns. The traced
	// run gets half the time: the layer probes take the rest.
	before, err := r.readCounters()
	if err != nil {
		return nil, err
	}
	r.timing = true
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	if cfg.Trace {
		budget /= 2
	}
	reps, err := r.timedPhase(p.Timed, budget)
	if err != nil {
		return nil, err
	}
	r.timing = false
	after, err := r.readCounters()
	if err != nil {
		return nil, err
	}
	rss := cl.serve.rssPeakMB() // before the reference phase grows the heap further
	rec.Reps = reps
	if reps == 0 {
		r.failCheck("no rep of the timed phase completed")
	}

	// Reference phase: ground truth for the first warm-up traces.
	errPct := r.reference(p)

	// The first warm-up rep's outputs against the library run in-process.
	r.checkFirst(p.Warmup[0])

	values := make(map[string]float64)
	if cfg.Trace {
		r.layerMetrics(values, p, before, after, reps, buildSeconds)
	}

	var workerRSS float64
	for _, w := range cl.workers {
		workerRSS = math.Max(workerRSS, w.rssPeakMB())
	}
	stopped = true
	if !cl.stop() {
		r.failCheck("a child process did not exit cleanly on SIGTERM (see %s/*.log)", cfg.OutDir)
	}

	if errPct > sp.ErrCeilingPct {
		r.failCheck("estimation error %.3f%% exceeds the workload's ceiling of %g%%", errPct, sp.ErrCeilingPct)
	}
	rec.WallS = time.Since(runStart).Seconds()
	rec.Attempted, rec.Failed, rec.Failures = r.attempted, len(r.failures), r.failures
	rec.Correct = rec.Failed == 0
	rec.Raw = r.samples
	rec.Tails = make(map[string]tail)
	rec.Metrics = make(map[string]metricValue)
	rec.Measured = make(map[string]float64)

	if !cfg.Trace {
		r.samples["setup_s"] = setups
		values["setup_s"], rec.Measured["setup_s"] = median(setupsRef), median(setups)
		for _, name := range speedScaled {
			xs := r.atRef[name]
			values[name], rec.Measured[name] = median(xs), median(r.samples[name])
			if lvl, v := tailPercentile(xs); lvl > 0 {
				rec.Tails[name] = tail{lvl, v}
			}
		}
		// One closed-loop client completes a rep every rep_ms.
		if ms := values["rep_ms"]; ms > 0 {
			values["jobs_per_s"], rec.Measured["jobs_per_s"] = 1e3/ms, 1e3/rec.Measured["rep_ms"]
		}
		// Dispatching a job that is already done costs a journal fsync, two
		// HTTP round trips and a poll pause: waiting, which does not follow
		// host CPU speed, so it is reported as measured.
		cached := r.samples["cached_job_ms"]
		values["cached_job_ms"] = median(cached)
		if lvl, v := tailPercentile(cached); lvl > 0 {
			rec.Tails["cached_job_ms"] = tail{lvl, v}
		}
		// CPU time is accounted over the whole phase, so it is scaled by the
		// phase's median reading: of the calibration pass's CPU time, which
		// a slower host inflates as it does the children's.
		cpuMs := (after.cpuServe - before.cpuServe + after.cpuWork - before.cpuWork) * 1e3 / float64(max(reps, 1))
		rec.Measured["cpu_ms_per_op"] = cpuMs
		if cal := median(r.samples["host.cal_cpu_ms"]); cal > 0 {
			values["cpu_ms_per_op"] = cpuMs * calReferenceMs / cal
		}
		values["est_error_pct"] = errPct
		values["server_rss_mb"] = rss
		for _, d := range endToEnd {
			rec.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
	} else {
		values["bpworker.rss_peak_mb"] = workerRSS
		for _, d := range perLayer {
			rec.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
		}
	}
	return rec, nil
}

// reference submits a full simulation of the first RefTraces warm-up traces
// and returns the mean absolute error of their estimates against it, in
// percent. The sweep workload first needs a default-configuration estimate
// of each of its traces.
func (r *runner) reference(p plan) float64 {
	sp := r.cfg.Spec
	var traces []*traceInput
	if sp.Sweep {
		traces = p.Preload
		for _, t := range traces {
			snap, _, ok := r.job(0, service.Request{Kind: service.KindEstimate, Trace: t.SHA, Warmup: sp.Warmup, Exec: sp.Exec})
			if !ok {
				continue
			}
			if est, err := parseEstimate(snap.Result); err != nil {
				r.fail("estimate of %.12s: %v", t.SHA, err)
			} else {
				r.estimates[t] = est
			}
		}
	} else {
		for _, st := range p.Warmup {
			traces = append(traces, st.Trace)
		}
	}
	traces = traces[:min(sp.RefTraces, len(traces))]

	var errs []float64
	for _, t := range traces {
		est, have := r.estimates[t]
		if !have {
			r.failCheck("no estimate recorded for reference trace %s", t)
			continue
		}
		snap, d, ok := r.job(0, service.Request{Kind: service.KindSimulate, Trace: t.SHA})
		if !ok {
			continue
		}
		full, err := parseEstimate(snap.Result)
		if err != nil {
			r.fail("simulate of %.12s: %v", t.SHA, err)
			continue
		}
		r.samples["full_sim_ms"] = append(r.samples["full_sim_ms"], float64(d.Nanoseconds())/1e6)
		errs = append(errs, math.Abs(est.TimeNs-full.TimeNs)/full.TimeNs*100)
	}
	return mean(errs)
}

// checkFirst recomputes the first warm-up rep's outputs with the library
// in-process — bp.Analyze + Save, then Analysis.Estimate on the local pool —
// and compares them with what the service returned: the selection byte for
// byte, the estimates' time_ns and ipc exactly. For the farm workload this
// is also the farmed-equals-local check.
func (r *runner) checkFirst(st step) {
	sp := r.cfg.Spec
	key, ok := r.keys[st.Trace]
	if !ok {
		r.failCheck("correctness check: the first warm-up rep did not upload its trace")
		return
	}
	cfg, err := service.ConfigFor(st.Signature, st.MaxK)
	if err != nil {
		r.failCheck("correctness check: %v", err)
		return
	}
	f, err := tracefile.NewReader(bytes.NewReader(st.Trace.Data), int64(len(st.Trace.Data)))
	if err != nil {
		r.failCheck("correctness check: opening the generated trace: %v", err)
		return
	}
	a, err := bp.Analyze(f, cfg)
	if err != nil {
		r.failCheck("correctness check: in-process analyze: %v", err)
		return
	}
	var want bytes.Buffer
	if err := a.Save(&want); err != nil {
		r.failCheck("correctness check: %v", err)
		return
	}

	r.attempted++
	got, err := r.c.selection(key, st.Signature, st.MaxK)
	switch {
	case err != nil:
		r.fail("correctness check: %v", err)
	case !bytes.Equal(got, want.Bytes()):
		r.fail("correctness check: GET /v1/selections/%.12s differs from in-process bp.Analyze + Save (%d vs %d bytes)", key, len(got), want.Len())
	}

	mc, err := service.MachineFor(f.Threads(), 0)
	if err != nil {
		r.failCheck("correctness check: %v", err)
		return
	}
	for _, w := range st.Warmups {
		mode, err := bp.ParseWarmup(w)
		if err != nil {
			r.failCheck("correctness check: %v", err)
			return
		}
		local, err := a.Estimate(mc, mode)
		if err != nil {
			r.failCheck("correctness check: in-process estimate: %v", err)
			return
		}
		// The job is a cache hit by now; its result is the artifact the
		// first rep produced.
		snap, _, ok := r.job(0, service.Request{
			Kind: service.KindEstimate, Trace: key, Signature: st.Signature, MaxK: st.MaxK, Warmup: w, Exec: sp.Exec})
		if !ok {
			continue
		}
		r.attempted++
		served, err := parseEstimate(snap.Result)
		switch {
		case err != nil:
			r.fail("correctness check: %v", err)
		case served.TimeNs != local.TimeNs || served.IPC != local.IPC():
			r.fail("correctness check: %s estimate of %.12s: service time_ns=%v ipc=%v, in-process time_ns=%v ipc=%v",
				w, key, served.TimeNs, served.IPC, local.TimeNs, local.IPC())
		}
	}
}
