package farm

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

// PointArtifact names the cached simulation result of region, a member of
// the run headed by head (see bp.Runs), under a machine config and warmup
// mode. The name hashes everything the result depends on (store.HashJSON,
// the store-wide convention), so a farm run, a later bptool -cache run and a
// service job over the same store all share the same work. A head is an
// independent point and keeps the name points had before runs; a later
// member's name also carries its head, on which its result depends.
func PointArtifact(head, region int, mc bp.MachineConfig, warmup string) string {
	name := fmt.Sprintf("point-%06d-%s-%s", region, store.HashJSON(mc), store.SanitizeLabel(warmup))
	if region != head {
		name += fmt.Sprintf("-run%06d", head)
	}
	return name + ".json"
}

// loadPoint reads a cached point result. ok is false when the artifact is
// absent or does not parse as a RegionResult — a miss: the caller recomputes
// and the fresh result overwrites it; any other read failure is an error.
func loadPoint(st *store.Store, traceKey, artifact string) (res bp.RegionResult, ok bool, err error) {
	b, err := st.GetArtifact(traceKey, artifact)
	if errors.Is(err, store.ErrNotFound) {
		return res, false, nil
	} else if err != nil {
		return res, false, err
	}
	ok = json.Unmarshal(b, &res) == nil
	return res, ok, nil
}

// encodeResults is a task's result on the wire: its run's RegionResults in
// region order, one object for a run of one — a point's wire form — and an
// array for a longer run.
func encodeResults(res []bp.RegionResult) ([]byte, error) {
	if len(res) == 1 {
		return json.Marshal(res[0])
	}
	return json.Marshal(res)
}

// decodeResults parses what encodeResults wrote.
func decodeResults(b []byte) ([]bp.RegionResult, error) {
	if b = bytes.TrimSpace(b); len(b) > 0 && b[0] == '[' {
		var run []bp.RegionResult
		return run, json.Unmarshal(b, &run)
	}
	var one bp.RegionResult
	err := json.Unmarshal(b, &one)
	return []bp.RegionResult{one}, err
}

// Executor performs leased tasks against a local store: open the trace,
// simulate the task's run — its head warmed as an independent point, each
// later member continuing on the head's machine — and return the members'
// results. This is the one compute path shared by in-process workers and
// cmd/bpworker, and it ends in the runPoint that LocalRunner and
// bp.SimulatePoint end in, so farmed results are bit-identical to local
// ones. The Executor keeps the MRU prefix pass of its last warm task: a
// worker that leases many runs of one trace — the common batch shape —
// decodes and tracks each warmup-prefix region once instead of once per
// run. The pass rule: a task of the same trace content
// and socket count (which fixes a Table I machine's thread count and
// tracking depth) at or ahead of the held pass advances it; anything else —
// first use, an earlier region, another trace or machine — replaces it with
// a fresh pass from region 0, what every task cost before; cold tasks never
// touch it. One pass is retained, about 25 B per distinct line per core of
// the current trace (52 B where lines are scattered over the warmup
// package's 16-line index pages), until another trace arrives or the worker
// exits. Every region streams: the pass reads it access-only, and a run
// decodes its own window and members. Resumed and fresh execution are
// bit-identical.
type Executor struct {
	st *store.Store

	mu      sync.Mutex     // held pass + counters: advance and snapshot only, never simulation
	pass    *bp.PrefixPass // nil until the first warm task
	trace   string         // content key of the trace pass has tracked
	sockets int            // Table I machine pass tracks for
	stats   PassStats
}

// PassStats counts an Executor's warm tasks by what the held pass did for
// them, and the prefix regions it actually tracked (a pass per task would
// have tracked the sum of their region indices).
type PassStats struct{ Resumed, Restarted, Regions uint64 }

// NewExecutor returns an Executor over st (which must hold the tasks'
// traces) with no pass held yet.
func NewExecutor(st *store.Store) *Executor { return &Executor{st: st} }

// PassStats returns the held pass's counters so far.
func (e *Executor) PassStats() PassStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// PassOrder sorts a leased batch for Warm — trace, machine, region ascending
// — so the tasks of one trace are one advance of the held pass.
func PassOrder(a, b Task) int {
	return cmp.Or(cmp.Compare(a.TraceKey, b.TraceKey), cmp.Compare(a.Sockets, b.Sockets), cmp.Compare(a.Region, b.Region))
}

// Warm is the serial half of a task: open the trace and, unless the task is
// cold, take its head's warm-up snapshot from the held pass. The function
// returned is the parallel half — snapshot replay and detailed simulation of
// the run — and must be called exactly once (it closes the trace); a batch
// calls Warm in PassOrder and runs the returned functions concurrently. span
// (may be nil) gets the run's phases as concurrent stages and, for a warm
// task, the advance as "warmup-capture" with prefix_from/prefix_to, the
// regions [from, to) it made the pass track.
func (e *Executor) Warm(t Task, span *obs.Span) (func() ([]bp.RegionResult, error), error) {
	mode, err := bp.ParseWarmup(t.Warmup)
	if err != nil {
		return nil, err
	}
	f, err := e.st.OpenTrace(t.TraceKey)
	if err != nil {
		return nil, err
	}
	mc, cold := bp.TableIMachine(t.Sockets), mode == bp.ColdWarmup
	e.mu.Lock()
	defer e.mu.Unlock()
	pass := e.pass
	resumed := !cold && pass != nil && e.trace == t.TraceKey && e.sockets == t.Sockets && t.Region >= pass.Pos()
	if !resumed {
		pass = bp.NewPrefixPass(mc)
	}
	from, t0 := pass.Pos(), time.Now()
	run, err := pass.Run(f, t.Region, max(t.Len, 1), mode, span.ObserveConcurrent)
	if err != nil { // the pass is where it was, or at region 0 after a decode error
		f.Close()
		return nil, err
	}
	if !cold { // a cold point tracked nothing: its pass is dropped unused
		span.ObserveConcurrent("warmup-capture", time.Since(t0))
		e.pass, e.trace, e.sockets = pass, t.TraceKey, t.Sockets
		if resumed {
			e.stats.Resumed++
		} else {
			e.stats.Restarted++
		}
		e.stats.Regions += uint64(t.Region - from)
		span.SetAttr("prefix_from", strconv.Itoa(from))
		span.SetAttr("prefix_to", strconv.Itoa(t.Region))
	}
	return func() ([]bp.RegionResult, error) {
		defer f.Close()
		return run()
	}, nil
}

// Execute performs one task start to finish.
func (e *Executor) Execute(t Task, span *obs.Span) ([]bp.RegionResult, error) {
	run, err := e.Warm(t, span)
	if err != nil {
		return nil, err
	}
	return run()
}

// QueueRunner is a bp.PointRunner that farms each run of points (see
// bp.Runs) out as a queue task and assembles the results as workers stream
// them back. Only Table I machines are supported: tasks describe their
// machine by socket count.
type QueueRunner struct {
	Q        *Queue
	TraceKey string
	// TraceID, when set, rides on every enqueued task so worker-side spans
	// link back to the submitting job (telemetry only; see Spec.TraceID).
	TraceID string
}

// RunPoints implements bp.PointRunner by enqueueing one task per run and
// waiting for the fleet (or the store cache) to resolve all of them. The
// passed program is not simulated locally — workers replay their own copy
// of the trace — so p is only used for validation.
func (r QueueRunner) RunPoints(p bp.Program, regions []int, mc bp.MachineConfig, mode bp.WarmupMode) (map[int]bp.RegionResult, error) {
	if store.HashJSON(bp.TableIMachine(mc.Sockets)) != store.HashJSON(mc) {
		return nil, fmt.Errorf("farm: only Table I machines can be farmed (got a custom %d-socket config)", mc.Sockets)
	}
	if p.Threads() != mc.Cores() {
		return nil, fmt.Errorf("farm: program has %d threads but machine has %d cores", p.Threads(), mc.Cores())
	}
	runs := bp.Runs(regions, mode)
	tickets := make([]*Ticket, 0, len(runs))
	for _, run := range runs {
		tk, err := r.Q.Enqueue(Spec{
			TraceKey: r.TraceKey,
			Region:   run[0],
			Len:      len(run),
			Sockets:  mc.Sockets,
			Warmup:   mode.String(),
			TraceID:  r.TraceID,
		})
		if err != nil {
			return nil, err
		}
		tickets = append(tickets, tk)
	}
	return WaitAll(context.Background(), tickets)
}

// CachedRunner is a bp.PointRunner that serves points from the
// content-addressed store when their artifacts exist and delegates the
// misses to Inner, caching what it computes as one batch. A member of a run
// (see bp.Runs) is named by its head too, and a missing one is re-simulated
// from its head: Inner gets each run up to its last missing member, which
// it groups into the same runs. It is how local execution (bptool -cache,
// bpserve local jobs) shares per-point work with the farm.
type CachedRunner struct {
	St       *store.Store
	TraceKey string
	Inner    bp.PointRunner

	// Hits and Misses are populated by RunPoints (not synchronized; read
	// them after it returns).
	Hits, Misses int
}

// RunPoints implements bp.PointRunner with read-through caching per point.
func (r *CachedRunner) RunPoints(p bp.Program, regions []int, mc bp.MachineConfig, mode bp.WarmupMode) (map[int]bp.RegionResult, error) {
	out := make(map[int]bp.RegionResult, len(regions))
	var redo []int                  // each run with a miss, up to its last one
	missing := make(map[int]string) // artifact names of the regions no artifact holds
	for _, run := range bp.Runs(regions, mode) {
		last := -1
		for i, region := range run {
			name := PointArtifact(run[0], region, mc, mode.String())
			if res, ok, err := loadPoint(r.St, r.TraceKey, name); err != nil {
				return nil, err
			} else if ok {
				out[region] = res
				r.Hits++
				continue
			}
			missing[region], last = name, i
			r.Misses++
		}
		redo = append(redo, run[:last+1]...)
	}
	if len(redo) == 0 {
		return out, nil
	}
	computed, err := r.Inner.RunPoints(p, redo, mc, mode)
	if err != nil {
		return nil, err
	}
	batch := make(map[string][]byte, len(missing))
	for region, res := range computed {
		out[region] = res
		if name, ok := missing[region]; ok { // else stored: its run was redone past it
			if batch[name], err = json.MarshalIndent(res, "", "  "); err != nil {
				return nil, err
			}
		}
	}
	if err := r.St.PutArtifacts(r.TraceKey, batch); err != nil {
		return nil, err
	}
	return out, nil
}
