package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	bp "barrierpoint"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// traceThreads is the thread count of every generated trace (one Table I
// socket).
const traceThreads = 8

// Every region of a generated trace starts, on thread 0, with one tag
// block: a single instruction loading an address unique to the trace's slot.
// The suite's generators emit byte-identical regions wherever a kernel recurs
// with the same iteration count, and bpserve's profile cache is keyed by
// region content, so two traces of one benchmark — even at slightly different
// scales — share most of their profiles and the second upload would not be
// cold. With the tag no region digest is shared between two traces of a run,
// every trace of a workload does exactly the same work, and the simulated
// program changes by one load per region. Regions that repeat inside one
// trace still share a digest, as they do in any trace the suite generates.
const (
	tagBlock = 1 << 32 // static block id of the tag; no generator uses it
	tagBase  = 1 << 52 // address range of the tag loads; no generator touches it
)

// spec defines one workload. A definition never changes under its name: a
// different input, script or sizing is a new workload with a new name.
type spec struct {
	Name string // BENCHMARK.json says, under the same name, why the workload is there

	// Trace family of the cold and farm workloads: every rep uploads a
	// distinct trace of this benchmark at this scale.
	Bench string
	Scale float64
	Gzip  bool
	// Warmup is the estimate's warm-up mode and Exec its execution tier.
	Warmup string
	Exec   string
	// Workers is the number of bpworker subprocesses.
	Workers int
	// Sweep marks the warm workload: instead of distinct traces it walks
	// analysis configurations over SweepTraces, which set-up has already
	// uploaded and default-analyzed.
	Sweep bool

	// RepsPerSecond sizes the timed phase as a fixed operation count,
	// ceil(seconds × RepsPerSecond), chosen so the reference machine
	// finishes it, host-speed readings included, in about 85 % of the run's
	// seconds: a slower host still completes the whole script. Counts, not
	// durations, are what repeat exactly.
	RepsPerSecond float64
	// WarmupReps run before timing starts and are not measured. They use
	// the same inputs whatever the seed, so the outputs checked on them
	// (correctness, estimation error) repeat exactly.
	WarmupReps int
	// RefTraces is how many of the warm-up traces get a ground-truth full
	// simulation after the timed phase.
	RefTraces int
	// ErrCeilingPct fails the run when the mean estimation error over the
	// reference traces exceeds it. The error is simulated time and repeats
	// exactly; the ceiling is the first baseline (23.58, 9.19, 3.95 and
	// 0.59 %) plus errSlackPoints.
	ErrCeilingPct float64
}

// sweepTraces are the three traces of the warm workload.
var sweepTraces = []struct {
	Bench string
	Scale float64
}{
	{"npb-ft", 1.0},
	{"npb-is", 1.0},
	{"parsec-bodytrack", 0.5},
}

var sweepSignatures = []string{"combine", "bbv", "reuse_dist"}

// Sweep max_k values: every (trace, signature) pair walks a seeded order of
// these. The default, 20, is left out: set-up has already analyzed it.
const sweepMinK, sweepMaxK = 3, 19

var specs = []spec{
	{
		Name:  "cold-many-regions",
		Bench: "npb-lu", Scale: 0.2, Warmup: "mru", Exec: "local",
		RepsPerSecond: 4.4, WarmupReps: 15, RefTraces: 5, ErrCeilingPct: 24.08,
	},
	{
		Name:  "cold-big-regions",
		Bench: "npb-cg", Scale: 0.5, Gzip: true, Warmup: "mru+prev", Exec: "local",
		RepsPerSecond: 0.5, WarmupReps: 2, RefTraces: 2, ErrCeilingPct: 9.69,
	},
	{
		Name:   "warm-sweep",
		Warmup: "mru", Exec: "local", Sweep: true,
		RepsPerSecond: 6.4, WarmupReps: 5, RefTraces: 3, ErrCeilingPct: 4.45,
	},
	{
		Name:  "farm-estimate",
		Bench: "npb-ft", Scale: 0.5, Warmup: "mru", Exec: "farm", Workers: 2,
		RepsPerSecond: 3, WarmupReps: 5, RefTraces: 5, ErrCeilingPct: 1.09,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// traceInput is one generated trace file. Slot numbers the traces of a run;
// it is what makes two traces of the same benchmark and scale differ.
type traceInput struct {
	Bench string
	Scale float64
	Gzip  bool
	Slot  int
	Data  []byte
	SHA   string // hex SHA-256 of Data; the key bpserve files it under
	// Distinct counts the different region digests in Data: the profiles a
	// cold upload must compute.
	Distinct int
}

// tagged is a Program whose every region carries the slot's tag block.
type tagged struct {
	trace.Program
	slot int
}

func (p tagged) Region(i int) trace.Region {
	return taggedRegion{p.Program.Region(i), tagBase + uint64(p.slot)*trace.LineSize}
}

type taggedRegion struct {
	trace.Region
	addr uint64
}

func (r taggedRegion) Thread(tid int) trace.Stream {
	if tid != 0 {
		return r.Region.Thread(tid)
	}
	return &taggedStream{Stream: r.Region.Thread(0), acc: [1]trace.Access{{Addr: r.addr}}}
}

type taggedStream struct {
	trace.Stream
	acc  [1]trace.Access
	sent bool
}

func (s *taggedStream) Next(be *trace.BlockExec) bool {
	if !s.sent {
		s.sent = true
		*be = trace.BlockExec{Block: tagBlock, Instrs: 1, Accs: s.acc[:]}
		return true
	}
	return s.Stream.Next(be)
}

// step is one rep of the closed loop: upload Trace, analyze it under
// (Signature, MaxK), run one fresh estimate per warm-up mode, then repeat
// each of those estimates unchanged (see cachedRepeats).
type step struct {
	Trace     *traceInput
	Fresh     bool // the upload must create the trace and every profile
	Signature string
	MaxK      int
	Warmups   []string
}

// plan is everything a run does, fixed by (spec, seed, seconds) alone.
type plan struct {
	Traces  []*traceInput // to generate in set-up
	Preload []*traceInput // uploaded and default-analyzed in set-up (sweep)
	Warmup  []step
	Timed   []step
}

// timedReps is the fixed operation count of a run's timed phase.
func (s spec) timedReps(seconds float64) int {
	return max(1, int(math.Ceil(seconds*s.RepsPerSecond)))
}

// newPlan lays out a run. Nothing is generated yet; see plan.generate.
func newPlan(s spec, seed int64, seconds float64) plan {
	rng := rand.New(rand.NewSource(seed))
	n := s.timedReps(seconds)
	if s.Sweep {
		return sweepPlan(s, rng, n)
	}
	var p plan
	total := s.WarmupReps + n
	steps := make([]step, total)
	for j := range steps {
		t := &traceInput{Bench: s.Bench, Scale: s.Scale, Gzip: s.Gzip, Slot: j}
		p.Traces = append(p.Traces, t)
		steps[j] = step{Trace: t, Fresh: true, Warmups: []string{s.Warmup}}
	}
	p.Warmup, p.Timed = steps[:s.WarmupReps], steps[s.WarmupReps:]
	rng.Shuffle(len(p.Timed), func(a, b int) { p.Timed[a], p.Timed[b] = p.Timed[b], p.Timed[a] })
	return p
}

// sweepPlan walks (trace, signature) groups round-robin, each group in its
// own seeded order of max_k values, so any prefix of the script keeps the
// same mix of traces and signatures. The warm-up cycles take each group's
// smallest max_k in fixed order, whatever the seed.
func sweepPlan(s spec, rng *rand.Rand, n int) plan {
	var p plan
	for j, st := range sweepTraces {
		t := &traceInput{Bench: st.Bench, Scale: st.Scale, Slot: j}
		p.Traces = append(p.Traces, t)
	}
	p.Preload = p.Traces
	warmups := []string{"cold", s.Warmup}
	type group struct {
		trace *traceInput
		sig   string
		ks    []int
	}
	var groups []group
	for _, t := range p.Traces {
		for _, sig := range sweepSignatures {
			groups = append(groups, group{trace: t, sig: sig})
		}
	}
	for i := 0; i < s.WarmupReps; i++ {
		g := groups[i%len(groups)]
		p.Warmup = append(p.Warmup, step{Trace: g.trace, Signature: g.sig, MaxK: sweepMinK + i/len(groups), Warmups: warmups})
	}
	used := func(g group, k int) bool {
		for _, w := range p.Warmup {
			if w.Trace == g.trace && w.Signature == g.sig && w.MaxK == k {
				return true
			}
		}
		return false
	}
	for gi := range groups {
		for k := sweepMinK; k <= sweepMaxK; k++ {
			if !used(groups[gi], k) {
				groups[gi].ks = append(groups[gi].ks, k)
			}
		}
		ks := groups[gi].ks
		rng.Shuffle(len(ks), func(a, b int) { ks[a], ks[b] = ks[b], ks[a] })
	}
	for round := 0; len(p.Timed) < n; round++ {
		added := false
		for _, g := range groups {
			if round < len(g.ks) && len(p.Timed) < n {
				p.Timed = append(p.Timed, step{Trace: g.trace, Signature: g.sig, MaxK: g.ks[round], Warmups: warmups})
				added = true
			}
		}
		if !added {
			break // the configuration space is exhausted
		}
	}
	return p
}

// generate records every trace of the plan, nproc at a time.
func (p *plan) generate() error {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	errs := make([]error, len(p.Traces))
	for i, t := range p.Traces {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = t.generate()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *traceInput) String() string { return fmt.Sprintf("%s x%g #%d", t.Bench, t.Scale, t.Slot) }

func (t *traceInput) generate() error {
	prog := tagged{workload.New(t.Bench, traceThreads, workload.WithScale(t.Scale)), t.Slot}
	var buf bytes.Buffer
	if err := bp.RecordTrace(&buf, prog, bp.WithTraceGzip(t.Gzip)); err != nil {
		return fmt.Errorf("recording %s: %w", t, err)
	}
	t.Data = buf.Bytes()
	sum := sha256.Sum256(t.Data)
	t.SHA = hex.EncodeToString(sum[:])
	digests := make(map[string]bool)
	if _, err := tracefile.DecodeStream(bytes.NewReader(t.Data), func(rc tracefile.RegionChunks) error {
		digests[rc.Digest] = true
		return nil
	}); err != nil {
		return fmt.Errorf("reading back %s: %w", t, err)
	}
	t.Distinct = len(digests)
	return nil
}
