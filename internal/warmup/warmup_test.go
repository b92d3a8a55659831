package warmup

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"barrierpoint/internal/sim"
	"barrierpoint/internal/sparse"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/workload"
)

// capture is Capture for programs that cannot fail to decode.
func capture(tb testing.TB, p trace.Program, atRegions []int, capacityLines int) map[int]Snapshot {
	tb.Helper()
	snaps, err := Capture(p, atRegions, capacityLines)
	if err != nil {
		tb.Fatal(err)
	}
	return snaps
}

func TestEntryRoundTrip(t *testing.T) {
	f := func(line uint64, dirty bool) bool {
		line &= (1 << 57) - 1
		e := NewEntry(line, dirty)
		return e.Line() == line && e.Dirty() == dirty
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrackerOrderAndCapacity(t *testing.T) {
	tr := newTracker()
	for i := 0; i < 10; i++ {
		tr.touch(uint64(i), false)
	}
	tr.touch(3, true) // refresh line 3, now MRU and dirty
	snap := tr.snapshot(5)
	if len(snap) != 5 {
		t.Fatalf("snapshot length %d, want 5", len(snap))
	}
	// MRU entry is last and is line 3, dirty.
	last := snap[len(snap)-1]
	if last.Line() != 3 || !last.Dirty() {
		t.Errorf("MRU entry = line %d dirty %v", last.Line(), last.Dirty())
	}
	// Entries are the 5 most recent: 6,7,8,9,3 in LRU→MRU order.
	want := []uint64{6, 7, 8, 9, 3}
	for i, e := range snap {
		if e.Line() != want[i] {
			t.Errorf("entry %d = line %d, want %d", i, e.Line(), want[i])
		}
	}
}

func TestTrackerDirtySticky(t *testing.T) {
	tr := newTracker()
	tr.touch(1, true)
	tr.touch(1, false) // read after write: line remains dirty in cache
	snap := tr.snapshot(10)
	if !snap[0].Dirty() {
		t.Error("written line lost dirtiness on read")
	}
}

func TestCaptureAtRegionStart(t *testing.T) {
	// The snapshot at region r must reflect regions < r only.
	p := workload.New("npb-is", 8, workload.WithScale(0.05))
	snaps := capture(t, p, []int{0, 2}, 1<<20)
	if len(snaps[0]) != 8 {
		t.Fatalf("snapshot has %d cores", len(snaps[0]))
	}
	for c := 0; c < 8; c++ {
		if len(snaps[0][c]) != 0 {
			t.Errorf("core %d snapshot at region 0 not empty", c)
		}
		if len(snaps[2][c]) == 0 {
			t.Errorf("core %d snapshot at region 2 empty", c)
		}
	}
}

func TestReplayRestoresPrivateCaches(t *testing.T) {
	// After capture+replay of a partitioned sequential workload whose
	// footprint fits the private caches, the warmed machine must hold
	// exactly the lines a fully simulated machine holds in L2.
	p := workload.New("npb-sp", 8, workload.WithScale(0.5))
	cfg := sim.TableI(1)

	gt := sim.New(cfg)
	const upTo = 10
	for i := 0; i < upTo; i++ {
		gt.RunRegion(p.Region(i))
	}
	snaps := capture(t, p, []int{upTo}, cfg.L3.Lines())
	wm := sim.New(cfg)
	Replay(wm, snaps[upTo])

	for c := 0; c < 2; c++ {
		for _, e := range snaps[upTo][c] {
			if gt.L2Has(c, e.Line()) && !wm.L2Has(c, e.Line()) {
				t.Fatalf("core %d line %#x present in ground truth L2 but missing after replay", c, e.Line())
			}
		}
	}
	if err := wm.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayedRegionTimingClose(t *testing.T) {
	// End-to-end: the warmed barrierpoint run must land near the ground
	// truth timing of the same region (well under the cold-start error).
	p := workload.New("npb-ft", 8, workload.WithScale(0.5))
	cfg := sim.TableI(1)
	const r = 14 // a steady-state evolve instance

	gt := sim.New(cfg)
	var want sim.RegionResult
	for i := 0; i <= r; i++ {
		want = gt.RunRegion(p.Region(i))
	}

	snaps := capture(t, p, []int{r}, cfg.L3.Lines())
	warm := sim.New(cfg)
	Replay(warm, snaps[r])
	for q := r - 3; q < r; q++ {
		warm.WarmRegion(p.Region(q))
	}
	got := warm.RunRegion(p.Region(r))

	cold := sim.New(cfg)
	coldRes := cold.RunRegion(p.Region(r))

	warmErr := relDiff(float64(got.Cycles), float64(want.Cycles))
	coldErr := relDiff(float64(coldRes.Cycles), float64(want.Cycles))
	if warmErr > 0.25 {
		t.Errorf("warmed run off by %.1f%%", warmErr*100)
	}
	if coldErr < 2*warmErr {
		t.Errorf("warmup did not help: warm %.2f vs cold %.2f", warmErr, coldErr)
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / b
}

func TestCaptureCapacityTruncation(t *testing.T) {
	// A tiny capacity keeps only the most recent lines.
	p := workload.New("npb-ft", 8, workload.WithScale(0.1))
	snaps := capture(t, p, []int{5}, 16)
	for c, entries := range snaps[5] {
		if len(entries) > 16 {
			t.Errorf("core %d snapshot exceeds capacity: %d", c, len(entries))
		}
	}
}

func TestReplayMoreCoresThanSnapshot(t *testing.T) {
	// Replaying a snapshot with fewer cores than the machine must not
	// panic; extra machine cores just stay cold.
	cfg := sim.Tiny(4)
	m := sim.New(cfg)
	snap := Snapshot{{NewEntry(1, false)}, {NewEntry(2, true)}}
	Replay(m, snap)
	if !m.L2Has(0, 1) || !m.L2Has(1, 2) {
		t.Error("replay skipped provided cores")
	}
}

// refTracker is the tracker this package shipped before the recency list:
// a map from line to (last-access sequence number, sticky dirty flag), and a
// snapshot that sorts every line ever touched by sequence number. It is
// slow, obviously right, and kept as the reference the list is checked
// against.
type refTracker struct {
	seq  uint64
	last map[uint64]refLine
}

type refLine struct {
	seq   uint64
	dirty bool
}

func newRefTracker() *refTracker { return &refTracker{last: make(map[uint64]refLine)} }

func (t *refTracker) touch(line uint64, write bool) {
	t.seq++
	li := t.last[line]
	li.seq = t.seq
	li.dirty = li.dirty || write
	t.last[line] = li
}

func (t *refTracker) snapshot(capacityLines int) []Entry {
	type rec struct {
		line uint64
		li   refLine
	}
	recs := make([]rec, 0, len(t.last))
	for line, li := range t.last {
		recs = append(recs, rec{line, li})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].li.seq < recs[j].li.seq })
	if len(recs) > capacityLines {
		recs = recs[len(recs)-capacityLines:]
	}
	out := make([]Entry, len(recs))
	for i, r := range recs {
		out[i] = NewEntry(r.line, r.li.dirty)
	}
	return out
}

// referenceStreams are the seeded line streams TestTrackerMatchesReference
// drives both trackers with. Each returns a generator over a footprint.
var referenceStreams = []struct {
	name string
	gen  func(rng *rand.Rand, footprint int) func() uint64
}{
	// A small hot set, a wide cold tail and bursts on one line, so lines
	// re-enter the window, leave it and repeat back to back.
	{"mixed", func(rng *rand.Rand, footprint int) func() uint64 {
		var line uint64
		return func() uint64 {
			switch rng.Intn(10) {
			case 0: // burst: same line again
			case 1, 2, 3: // hot set
				line = uint64(rng.Intn(16))
			default:
				line = uint64(rng.Intn(footprint)) << uint(rng.Intn(3)*10)
			}
			return line
		}
	}},
	// Runs of up to 64 consecutive lines, up or down from an unaligned start,
	// so every run crosses page boundaries in both directions.
	{"sweeps", func(rng *rand.Rand, footprint int) func() uint64 {
		var line, step uint64
		left := 0
		return func() uint64 {
			if left == 0 {
				line, step, left = uint64(64+rng.Intn(footprint)), 1, 1+rng.Intn(64)
				if rng.Intn(2) == 0 {
					step = ^uint64(0) // -1
				}
			}
			left--
			line += step
			return line
		}
	}},
	// One line per page: strided sweeps and random pages at a fixed offset
	// inside the page, so every touch probes the index.
	{"strides", func(rng *rand.Rand, footprint int) func() uint64 {
		off, k := uint64(rng.Intn(pageLines)), 0
		return func() uint64 {
			if rng.Intn(2) == 0 {
				k = (k + 1) % footprint
				return uint64(k)*pageLines + off
			}
			return uint64(rng.Intn(footprint))*pageLines + off
		}
	}},
	// The mixed stream's shape at and above 2^46 (the tag range of the
	// workload generators) and around 2^57.
	{"high", func(rng *rand.Rand, footprint int) func() uint64 {
		bases := []uint64{1 << 46, 1<<57 - uint64(footprint/2)}
		return func() uint64 {
			base := bases[rng.Intn(len(bases))]
			if rng.Intn(4) == 0 {
				return base + uint64(rng.Intn(16))
			}
			return base + uint64(rng.Intn(footprint))
		}
	}},
}

// TestTrackerMatchesReference drives the recency list and the reference
// tracker with the same seeded streams (referenceStreams) and compares
// snapshots taken mid-stream at capacity 1, a capacity inside the footprint,
// and one past it.
func TestTrackerMatchesReference(t *testing.T) {
	for _, st := range referenceStreams {
		for seed := int64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			footprint := 50 + rng.Intn(2000)
			next := st.gen(rng, footprint)
			tr, ref := newTracker(), newRefTracker()
			for n := 0; n < 40000; n++ {
				line, write := next(), rng.Intn(4) == 0
				tr.touch(line, write)
				ref.touch(line, write)
				if n%5000 == 4999 {
					for _, capacity := range []int{1, footprint / 3, 1 << 20} {
						if got, want := tr.snapshot(capacity), ref.snapshot(capacity); !slices.Equal(got, want) {
							t.Fatalf("%s seed %d, access %d, capacity %d: snapshot differs from reference (%d vs %d entries)",
								st.name, seed, n, capacity, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// TestTrackerRetainedBytes pins what the page-grouped index costs per
// distinct line, counted from the capacities of the tracker's arrays,
// against the per-line index it replaced (one sparse.Table slot per line,
// rebuilt here from the tracked lines): below it on npb-cg, whose lines fill
// their pages, and at most 5 % above it on npb-is, whose lines are scattered
// (under three per page).
func TestTrackerRetainedBytes(t *testing.T) {
	const slotBytes = 8 + 4 + 1 // sparse.Table[int32]: key, value, distance
	for _, c := range []struct {
		bench string
		scale float64
		limit float64 // bytes per line stay below this share of the per-line index's
	}{{"npb-cg", 0.5, 1}, {"npb-is", 1, 1.05}} {
		p := workload.New(c.bench, 8, workload.WithScale(c.scale))
		ps := NewPass(p.Threads(), 131072)
		if _, err := ps.Snapshot(p, p.Regions()); err != nil {
			t.Fatal(err)
		}
		var lines, got, old int
		for _, tr := range ps.trackers {
			perLine := sparse.NewTable[int32](1024)
			for _, n := range tr.nodes[1:] {
				perLine.Upsert(n.entry.Line())
			}
			nodeBytes := cap(tr.nodes) * int(unsafe.Sizeof(node{}))
			lines += len(tr.nodes) - 1
			got += nodeBytes + cap(tr.pages)*int(unsafe.Sizeof([pageLines]int32{})) + tr.index.Cap()*slotBytes
			old += nodeBytes + perLine.Cap()*slotBytes
		}
		gotPer, oldPer := float64(got)/float64(lines), float64(old)/float64(lines)
		t.Logf("%s x%g: %d lines, %.1f B per line (per-line index: %.1f)", c.bench, c.scale, lines, gotPer, oldPer)
		if gotPer >= c.limit*oldPer {
			t.Errorf("%s x%g: %.1f B per line, want below %.2f x %.1f", c.bench, c.scale, gotPer, c.limit, oldPer)
		}
	}
}

// TestTrackerDirtyOutsideWindow is the case a capacity-bounded LRU gets
// wrong: a written line falls out of the capacity window, is read again, and
// must come back dirty — the tracker never forgets a line.
func TestTrackerDirtyOutsideWindow(t *testing.T) {
	tr, ref := newTracker(), newRefTracker()
	touch := func(line uint64, write bool) {
		tr.touch(line, write)
		ref.touch(line, write)
	}
	touch(7, true)
	for l := uint64(100); l < 110; l++ {
		touch(l, false)
	}
	for _, e := range tr.snapshot(4) {
		if e.Line() == 7 {
			t.Fatal("line 7 still inside a 4-line window after 10 other lines")
		}
	}
	touch(7, false)
	got := tr.snapshot(4)
	if !slices.Equal(got, ref.snapshot(4)) {
		t.Fatal("snapshot differs from reference")
	}
	if mru := got[len(got)-1]; mru.Line() != 7 || !mru.Dirty() {
		t.Errorf("MRU entry = line %d dirty %v, want line 7 dirty", mru.Line(), mru.Dirty())
	}
}

// TestTouchResidentLineZeroAllocs caps the hot path: touching a line the
// tracker already holds — MRU or not — allocates nothing.
func TestTouchResidentLineZeroAllocs(t *testing.T) {
	tr := newTracker()
	for l := uint64(0); l < 4096; l++ {
		tr.touch(l, false)
	}
	var l uint64
	allocs := testing.AllocsPerRun(10000, func() {
		tr.touch(l%4096, l%3 == 0)
		tr.touch(l%4096, false) // MRU re-touch
		l += 37
	})
	if allocs != 0 {
		t.Errorf("touch of a resident line allocates %.1f times per run, want 0", allocs)
	}
}

// countingProgram counts Region calls reaching the underlying program.
type countingProgram struct {
	trace.Program
	regionCalls []int
}

func (p *countingProgram) Region(i int) trace.Region {
	p.regionCalls = append(p.regionCalls, i)
	return p.Program.Region(i)
}

// TestStreamContract: a Pass asked for ascending regions hands each snapshot
// over before any later region is replayed; the pass stops at the last
// requested region without replaying it; every snapshot equals what the
// reference tracker computes over the same prefix; and Capture collects the
// same snapshots from unordered input with duplicates and out-of-range regions.
func TestStreamContract(t *testing.T) {
	base := workload.New("npb-is", 4, workload.WithScale(0.05))
	p := &countingProgram{Program: base}
	const capacity = 512
	var emitted []int
	replayedAt := make(map[int]int) // region → regions replayed when emitted
	snaps := make(map[int]Snapshot)
	ps := NewPass(p.Threads(), capacity)
	for _, r := range []int{0, 2, 5} {
		s, err := ps.Snapshot(p, r)
		if err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, r)
		replayedAt[r] = len(p.regionCalls)
		snaps[r] = s
	}
	if want := []int{0, 2, 5}; !slices.Equal(emitted, want) {
		t.Fatalf("emitted regions %v, want %v", emitted, want)
	}
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(p.regionCalls, want) {
		t.Errorf("pass replayed regions %v, want %v (stop before the last requested region)", p.regionCalls, want)
	}
	for _, r := range emitted {
		if replayedAt[r] != r {
			t.Errorf("region %d emitted after %d regions were replayed", r, replayedAt[r])
		}
	}

	refs := make([]*refTracker, base.Threads())
	for tid := range refs {
		refs[tid] = newRefTracker()
	}
	for i := 0; i <= 5; i++ {
		if snap, ok := snaps[i]; ok {
			for tid, ref := range refs {
				if !slices.Equal(snap[tid], ref.snapshot(capacity)) {
					t.Errorf("region %d core %d: snapshot differs from reference", i, tid)
				}
			}
		}
		for tid, ref := range refs {
			s := base.Region(i).Thread(tid)
			var be trace.BlockExec
			for s.Next(&be) {
				for _, a := range be.Accs {
					ref.touch(trace.LineAddr(a.Addr), a.Write)
				}
			}
		}
	}

	messy := []int{5, 2, -1, 5, 0, base.Regions() + 3, 2}
	if got := capture(t, base, messy, capacity); !reflect.DeepEqual(got, snaps) {
		t.Error("Capture differs from the snapshots the Pass handed over")
	}
	if got := capture(t, base, []int{-4, base.Regions()}, capacity); len(got) != 0 {
		t.Errorf("Capture of out-of-range regions returned %d snapshots", len(got))
	}
}
