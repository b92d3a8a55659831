// Package warmup implements the paper's cache warmup technique (§IV): while
// instrumenting the application, each core tracks its most-recently-used
// cache lines up to a capacity equal to the largest shared LLC; before
// detailed simulation of a barrierpoint, each core replays its captured
// lines in LRU→MRU order through the machine's normal coherent access path,
// restoring cache and directory state without functional simulation of the
// full history.
//
// # Cost model
//
// The prefix pass must stay cheaper than the detailed simulation it stands
// in for, so the per-core tracker is a recency list, not a timestamp map: a
// flat node array threaded on an intrusive doubly-linked list ordered
// LRU→MRU, indexed by 16-line page (a sparse.Table to the page's node
// slots). Touching a line is a splice to the list tail plus one hash probe
// per change of page — O(1), no allocation for a line seen before. A
// snapshot walks capacity nodes back from the tail — O(capacity),
// independent of how many lines the core has ever touched, and with no
// sort. A program that offers an access-only read (accessReader: a recorded
// trace, or a caching view of one) hands the pass packed entries, never
// block records, for every region.
//
// # Why the index is unbounded
//
// Lines are never dropped when they fall out of the capacity window. A
// line's dirty flag is sticky for the whole pass (see tracker.touch), so a
// line written once, pushed out of the window by capacity other lines and
// then read again must come back dirty; a bounded LRU would have forgotten
// the write. Memory therefore grows with the distinct lines a core touches
// over the prefix: 16 B of node per line, and per page touched a 64-byte
// slot array and one index entry. That is about 25 B per line where lines
// fill their pages (npb-cg), and about 52 B where they are scattered
// (npb-is, under three lines per page), against 37 and 51 B for an index
// entry per line (TestTrackerRetainedBytes).
//
// # Streaming contract
//
// Pass is the one prefix-pass implementation. Pass.Snapshot(p, at)
// tracks regions up to (not including) at and returns the snapshot at its
// entry, or the first decode error, which spends the pass. So a caller
// asking for its regions in ascending order walks the prefix once, gets each
// snapshot the moment the pass reaches that region — before any later region
// is tracked — and can start simulating early points while the pass
// continues; the pass stops at the last region asked for. A region's threads
// are tracked on up to GOMAXPROCS goroutines: the per-core trackers share
// nothing, and a program reads one region's threads concurrently. Capture is
// a collector over a fresh Pass for callers that want every snapshot at
// once, and normalises its input.
//
// # Resuming
//
// A snapshot is a pure function of the trace prefix before its region, so
// the state a pass has built by region r is what any snapshot at or after r
// continues from. Pass.Snapshot therefore tracks only [Pos, at) and
// stays at at: a caller that needs points one at a time in ascending order
// (a farm worker) pays one pass in total, not one per point. A pass holds
// trackers and a position, never a Program — each call brings its own, with
// the content earlier calls tracked — so the caller keys it by trace content
// and starts a new Pass for another trace, capacity or thread count, or a
// region behind Pos. Resumed and fresh snapshots are equal entry for entry.
package warmup

import (
	"errors"
	"slices"
	"sync"
	"time"

	"barrierpoint/internal/par"
	"barrierpoint/internal/sim"
	"barrierpoint/internal/sparse"
	"barrierpoint/internal/trace"
)

// Entry is one captured cache line: line address shifted left once, with
// the low bit carrying the dirty flag (last access was a store).
type Entry uint64

// NewEntry packs a line address and dirty flag.
func NewEntry(line uint64, dirty bool) Entry {
	e := Entry(line << 1)
	if dirty {
		e |= 1
	}
	return e
}

// Line returns the cache line address.
func (e Entry) Line() uint64 { return uint64(e) >> 1 }

// Dirty reports whether the captured line was last written.
func (e Entry) Dirty() bool { return e&1 != 0 }

// Snapshot is per-core warmup data for one barrierpoint: for each core, its
// most recent lines in LRU→MRU replay order.
type Snapshot [][]Entry

// node is one tracked line on the recency list. Links are indices into
// tracker.nodes, so growing the array moves no pointers and the garbage
// collector sees one pointer-free allocation per core.
type node struct {
	entry      Entry
	prev, next int32
}

// pageLines is the number of consecutive lines one index entry covers.
const pageLines = 16

// tracker accumulates one core's most-recent-access ordering. nodes[0] is
// the sentinel of a circular list: nodes[0].next is the least recently used
// line, nodes[0].prev the most recently used. index maps line/pageLines to
// the page's slots in pages, each a line's node (0 = untracked); lastPage
// caches the page of the last touch. int32 links bound a core to 2^31
// distinct lines (128 GiB of footprint), far past anything a trace can hold.
type tracker struct {
	index    sparse.Table[int32]
	pages    [][pageLines]int32
	lastKey  uint64 // line/pageLines of lastPage; no line maps to ^0
	lastPage int32
	nodes    []node
	decode   time.Duration // spent in accessReader reads
}

func newTracker() *tracker {
	return &tracker{
		index:   *sparse.NewTable[int32](64),
		lastKey: ^uint64(0),
		nodes:   make([]node, 1, 1024),
	}
}

func (t *tracker) touch(line uint64, write bool) {
	if key := line / pageLines; key != t.lastKey {
		p, existed := t.index.Upsert(key)
		if !existed {
			*p = int32(len(t.pages))
			t.pages = append(t.pages, [pageLines]int32{})
		}
		t.lastKey, t.lastPage = key, *p
	}
	slot := &t.pages[t.lastPage][line%pageLines]
	if *slot == 0 {
		i := int32(len(t.nodes))
		*slot = i
		mru := t.nodes[0].prev
		t.nodes = append(t.nodes, node{entry: NewEntry(line, write), prev: mru, next: 0})
		t.nodes[mru].next = i
		t.nodes[0].prev = i
		return
	}
	i := *slot
	n := &t.nodes[i]
	// Dirtiness is sticky: once written, a line that stays resident in the
	// private hierarchy remains Modified until evicted, so replaying it as
	// a store restores the common (cache-resident working set) case.
	if write {
		n.entry |= 1
	}
	mru := t.nodes[0].prev
	if i == mru {
		return
	}
	t.nodes[n.prev].next = n.next
	t.nodes[n.next].prev = n.prev
	n.prev, n.next = mru, 0
	t.nodes[mru].next = i
	t.nodes[0].prev = i
}

// snapshot returns the capacity most recent lines in LRU→MRU order.
func (t *tracker) snapshot(capacityLines int) []Entry {
	n := min(capacityLines, len(t.nodes)-1)
	out := make([]Entry, n)
	i := t.nodes[0].prev
	for k := n - 1; k >= 0; k-- {
		out[k] = t.nodes[i].entry
		i = t.nodes[i].prev
	}
	return out
}

// track replays one thread's stream of one region into the tracker and
// returns the error the stream ended on.
func (t *tracker) track(s trace.Stream) error {
	var be trace.BlockExec
	for s.Next(&be) {
		for _, a := range be.Accs {
			t.touch(trace.LineAddr(a.Addr), a.Write)
		}
	}
	return trace.Err(s)
}

// accessReader appends one thread's accesses in one region to dst as Entry
// values and returns the decode error: tracefile.File and its cache view.
type accessReader interface {
	AppendAccesses(dst []uint64, region, tid int) ([]uint64, error)
}

// accessScratch pools the entry buffers an accessReader fills.
var accessScratch = sync.Pool{New: func() any { return new([]uint64) }}

// trackAccesses tracks one thread of one region from ar.
func (t *tracker) trackAccesses(ar accessReader, region, tid int) error {
	buf := accessScratch.Get().(*[]uint64)
	defer accessScratch.Put(buf)
	t0 := time.Now()
	var err error
	*buf, err = ar.AppendAccesses((*buf)[:0], region, tid)
	t.decode += time.Since(t0)
	for _, e := range *buf {
		t.touch(e>>1, e&1 != 0)
	}
	return err
}

// Pass is one resumable MRU prefix pass (see "Resuming"): every core's
// tracker and the next region to track. Not safe for concurrent use.
type Pass struct {
	trackers []*tracker
	capacity int
	pos      int
}

// NewPass returns a pass at region 0 of a program with the given thread
// count. The capacity is expressed in cache lines and should equal the
// largest shared LLC the barrierpoint will ever be simulated on (paper §IV:
// only this one number must be known).
func NewPass(threads, capacityLines int) *Pass {
	ps := &Pass{trackers: make([]*tracker, threads), capacity: capacityLines}
	for t := range ps.trackers {
		ps.trackers[t] = newTracker()
	}
	return ps
}

// Pos returns the first region the pass has not tracked yet.
func (ps *Pass) Pos() int { return ps.pos }

// Decoded returns the time the pass spent in access-only reads, summed over cores.
func (ps *Pass) Decoded() (d time.Duration) {
	for _, t := range ps.trackers {
		d += t.decode
	}
	return d
}

// Snapshot tracks regions [Pos, at) of p and returns each core's MRU state at
// the entry of region at, leaving the pass there: region at itself is not
// replayed, a snapshot depends only on the regions before it. at must not be
// behind Pos. Each region is read access-only where p offers it (see "Cost
// model"). A region that fails to decode fails the call and spends the pass:
// start a new one.
func (ps *Pass) Snapshot(p trace.Program, at int) (Snapshot, error) {
	if at < ps.pos {
		panic("warmup: Pass.Snapshot behind the pass; start a new Pass")
	}
	threads := len(ps.trackers)
	ar, _ := p.(accessReader)
	errs := make([]error, threads)
	for ; ps.pos < at; ps.pos++ {
		q := ps.pos
		if ar != nil {
			par.For(threads, func(t int) { errs[t] = ps.trackers[t].trackAccesses(ar, q, t) })
		} else {
			r := p.Region(q)
			par.For(threads, func(t int) { errs[t] = ps.trackers[t].track(r.Thread(t)) })
		}
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
	}
	snap := make(Snapshot, threads)
	par.For(threads, func(t int) { snap[t] = ps.trackers[t].snapshot(ps.capacity) })
	return snap, nil
}

// Capture collects the snapshot at the entry of every region in atRegions
// from one fresh Pass, keyed by region index. atRegions may be unordered and
// contain duplicates, and regions outside the program are ignored. Regions
// not in atRegions cost only the trace replay.
func Capture(p trace.Program, atRegions []int, capacityLines int) (map[int]Snapshot, error) {
	want := slices.Clone(atRegions)
	slices.Sort(want)
	want = slices.Compact(want)
	want = slices.DeleteFunc(want, func(r int) bool { return r < 0 || r >= p.Regions() })
	out := make(map[int]Snapshot, len(want))
	ps := NewPass(p.Threads(), capacityLines)
	for _, at := range want {
		snap, err := ps.Snapshot(p, at)
		if err != nil {
			return nil, err
		}
		out[at] = snap
	}
	return out, nil
}

// Replay restores cache state on a fresh machine by replaying each core's
// captured lines, oldest first, through the normal coherent access path.
// Dirty lines replay as stores so the directory records ownership.
func Replay(m *sim.Machine, snap Snapshot) {
	for c, entries := range snap {
		if c >= m.Config().Cores() {
			break
		}
		for _, e := range entries {
			m.WarmAccess(c, e.Line(), e.Dirty())
		}
	}
}
