package farm

import (
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

// PointArtifact names the cached per-point simulation result for a region
// under a machine config and warmup mode. The name hashes everything the
// result depends on (store.HashJSON, the store-wide convention), so a
// farm run, a later bptool -cache run and a service job over the same
// store all share the same work.
func PointArtifact(region int, mc bp.MachineConfig, warmup string) string {
	return fmt.Sprintf("point-%06d-%s-%s.json", region, store.HashJSON(mc), store.SanitizeLabel(warmup))
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

// Executor performs leased tasks against a local store: open the trace,
// simulate the single point, return the result. This is the one compute
// path shared by in-process workers and cmd/bpworker, and it ends in the
// runPoint that LocalRunner and bp.SimulatePoint end in, so farmed results
// are bit-identical to local ones. Regions decode through rc (keyed by the
// task's trace content key), and the Executor keeps the MRU prefix pass of
// its last warm task: a worker that leases many points of one trace — the
// common batch shape — decodes and tracks each warmup-prefix region once
// instead of once per point. The pass rule: a task of the same trace content
// and socket count (which fixes a Table I machine's thread count and
// tracking depth) at or ahead of the held pass advances it; anything else —
// first use, an earlier region, another trace or machine — replaces it with
// a fresh pass from region 0, what every task cost before; cold tasks never
// touch it. One pass is retained, 16 B of node plus one index slot per
// distinct line per core of the current trace, until another trace arrives
// or the worker exits. A nil rc streams from disk; cached, resumed and fresh
// execution are all bit-identical.
type Executor struct {
	st *store.Store
	rc *bp.ReplayCache

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
func NewExecutor(st *store.Store, rc *bp.ReplayCache) *Executor {
	return &Executor{st: st, rc: rc}
}

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
// cold, take its warm-up snapshot from the held pass. The function returned
// is the parallel half — snapshot replay and detailed simulation — and must
// be called exactly once (it closes the trace); a batch calls Warm in
// PassOrder and runs the returned functions concurrently. span (may be nil)
// gets the point's phases as concurrent stages and, for a warm task, the
// advance as "warmup-capture" with prefix_from/prefix_to, the regions
// [from, to) it made the pass track.
func (e *Executor) Warm(t Task, span *obs.Span) (func() (bp.RegionResult, error), error) {
	mode, err := bp.ParseWarmup(t.Warmup)
	if err != nil {
		return nil, err
	}
	f, err := e.st.OpenTrace(t.TraceKey)
	if err != nil {
		return nil, err
	}
	prog, mc := e.rc.Program(f, t.TraceKey), bp.TableIMachine(t.Sockets)
	cold := mode == bp.ColdWarmup
	e.mu.Lock()
	defer e.mu.Unlock()
	pass := e.pass
	resumed := !cold && pass != nil && e.trace == t.TraceKey && e.sockets == t.Sockets && t.Region >= pass.Pos()
	if !resumed {
		pass = bp.NewPrefixPass(mc)
	}
	from, t0 := pass.Pos(), time.Now()
	point, err := pass.Point(prog, t.Region, mode, span.ObserveConcurrent)
	if err != nil { // rejected before tracking anything: the held pass stays
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
	return func() (bp.RegionResult, error) {
		defer f.Close()
		return point(), nil
	}, nil
}

// Execute performs one task start to finish.
func (e *Executor) Execute(t Task, span *obs.Span) (bp.RegionResult, error) {
	run, err := e.Warm(t, span)
	if err != nil {
		return bp.RegionResult{}, err
	}
	return run()
}

// QueueRunner is a bp.PointRunner that farms each point out as a queue
// task and assembles the results as workers stream them back. Only Table
// I machines are supported: tasks describe their machine by socket count.
type QueueRunner struct {
	Q        *Queue
	TraceKey string
	// TraceID, when set, rides on every enqueued task so worker-side spans
	// link back to the submitting job (telemetry only; see Spec.TraceID).
	TraceID string
}

// RunPoints implements bp.PointRunner by enqueueing one task per distinct
// region and waiting for the fleet (or the store cache) to resolve all of
// them. The passed program is not simulated locally — workers replay
// their own copy of the trace — so p is only used for validation.
func (r QueueRunner) RunPoints(p bp.Program, regions []int, mc bp.MachineConfig, mode bp.WarmupMode) (map[int]bp.RegionResult, error) {
	if store.HashJSON(bp.TableIMachine(mc.Sockets)) != store.HashJSON(mc) {
		return nil, fmt.Errorf("farm: only Table I machines can be farmed (got a custom %d-socket config)", mc.Sockets)
	}
	if p.Threads() != mc.Cores() {
		return nil, fmt.Errorf("farm: program has %d threads but machine has %d cores", p.Threads(), mc.Cores())
	}
	seen := make(map[int]bool, len(regions))
	tickets := make([]*Ticket, 0, len(regions))
	for _, region := range regions {
		if seen[region] {
			continue
		}
		seen[region] = true
		tk, err := r.Q.Enqueue(Spec{
			TraceKey: r.TraceKey,
			Region:   region,
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
// misses to Inner, caching what it computes. It is how local execution
// (bptool -cache, bpserve local jobs) shares per-point work with the farm.
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
	var missing []int
	seen := make(map[int]bool, len(regions))
	for _, region := range regions {
		if seen[region] {
			continue
		}
		seen[region] = true
		if res, ok, err := loadPoint(r.St, r.TraceKey, PointArtifact(region, mc, mode.String())); err != nil {
			return nil, err
		} else if ok {
			out[region] = res
			r.Hits++
			continue
		}
		missing = append(missing, region)
		r.Misses++
	}
	if len(missing) == 0 {
		return out, nil
	}
	computed, err := r.Inner.RunPoints(p, missing, mc, mode)
	if err != nil {
		return nil, err
	}
	for region, res := range computed {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := r.St.PutArtifact(r.TraceKey, PointArtifact(region, mc, mode.String()), b); err != nil {
			return nil, err
		}
		out[region] = res
	}
	return out, nil
}
