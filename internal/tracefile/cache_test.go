package tracefile

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"barrierpoint/internal/trace"
	"barrierpoint/internal/workload"
)

// drainAny is drain for arbitrary streams (the cache returns blocksStream,
// not chunkStream).
func drainAny(s trace.Stream) []trace.BlockExec {
	var out []trace.BlockExec
	var be trace.BlockExec
	for s.Next(&be) {
		cp := be
		cp.Accs = append([]trace.Access(nil), be.Accs...)
		out = append(out, cp)
	}
	return out
}

// sameBlocks fails the test unless got is want, block for block and access
// for access.
func sameBlocks(t *testing.T, what string, got, want []trace.BlockExec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i].Block != got[i].Block || want[i].Instrs != got[i].Instrs ||
			want[i].Branch != got[i].Branch || want[i].Taken != got[i].Taken ||
			len(want[i].Accs) != len(got[i].Accs) {
			t.Fatalf("%s: block %d differs", what, i)
		}
		for j := range want[i].Accs {
			if want[i].Accs[j] != got[i].Accs[j] {
				t.Fatalf("%s: block %d acc %d differs", what, i, j)
			}
		}
	}
}

// TestRegionCacheBitIdentical replays every region of a recorded workload
// through the cache and compares block-for-block with the uncached stream,
// for both raw and gzip traces, twice (cold then warm).
func TestRegionCacheBitIdentical(t *testing.T) {
	for _, gz := range []bool{false, true} {
		t.Run(fmt.Sprintf("gzip=%v", gz), func(t *testing.T) {
			prog := workload.New("npb-ft", 4, workload.WithScale(0.05))
			f := record(t, prog, WithGzip(gz))
			c := NewRegionCache(64 << 20)
			cp := c.Program(f, "test-trace-id")

			if cp.Name() != f.Name() || cp.Threads() != f.Threads() || cp.Regions() != f.Regions() {
				t.Fatal("cached program metadata differs")
			}
			for pass := 0; pass < 2; pass++ {
				for r := 0; r < f.Regions(); r++ {
					for tid := 0; tid < f.Threads(); tid++ {
						sameBlocks(t, fmt.Sprintf("pass %d region %d thread %d", pass, r, tid),
							drainAny(cp.Region(r).Thread(tid)), drainAny(f.Region(r).Thread(tid)))
					}
				}
			}
			st := c.Stats()
			if st.Hits == 0 || st.Misses != int64(f.Regions()) {
				t.Errorf("stats = %+v, want %d misses and some hits", st, f.Regions())
			}
		})
	}
}

// TestRegionCacheSharedAcrossOpens proves the content keying: two separate
// File instances over the same bytes share entries when given the same id.
func TestRegionCacheSharedAcrossOpens(t *testing.T) {
	prog := workload.New("npb-is", 2, workload.WithScale(0.05))
	f1 := record(t, prog)
	f2 := record(t, prog)
	c := NewRegionCache(64 << 20)
	p1 := c.Program(f1, "same-id")
	p2 := c.Program(f2, "same-id")
	drainAny(p1.Region(0).Thread(0))
	drainAny(p2.Region(0).Thread(0))
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want exactly one decode shared across opens", st)
	}
}

// TestRegionCacheEviction bounds the cache below the trace size and checks
// the byte budget holds while replay stays correct.
func TestRegionCacheEviction(t *testing.T) {
	prog := workload.New("npb-ft", 4, workload.WithScale(0.1))
	f := record(t, prog)

	// Measure one region's decoded size to pick a budget of ~2 regions.
	_, size, err := decodeRegion(f, 0, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	c := NewRegionCache(2*size + size/2)
	cp := c.Program(f, "evict-test")
	for r := 0; r < f.Regions(); r++ {
		drainAny(cp.Region(r).Thread(0))
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Errorf("cache holds %d bytes over budget %d", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions despite undersized budget")
	}
	// Replay after heavy eviction is still correct.
	want := drainAny(f.Region(0).Thread(1))
	got := drainAny(cp.Region(0).Thread(1))
	if len(want) != len(got) {
		t.Fatalf("post-eviction replay differs: %d vs %d blocks", len(got), len(want))
	}
}

// TestRegionCacheHoldsExactlyWhatItCounts: every cached thread is two slices
// with no spare capacity, and Stats().Bytes — what the budget is checked
// against and bp_replay_cache_bytes reports — is their capacity in bytes.
func TestRegionCacheHoldsExactlyWhatItCounts(t *testing.T) {
	prog := workload.New("npb-ft", 4, workload.WithScale(0.05))
	f := record(t, prog, WithGzip(true))
	c := NewRegionCache(64 << 20)
	cp := c.Program(f, "exact")
	for r := 0; r < f.Regions(); r++ {
		drainAny(cp.Region(r).Thread(0))
	}
	var held int64
	for k, el := range c.entries {
		e := el.Value.(*cacheEntry)
		for tid, th := range e.threads {
			if cap(th.blocks) != len(th.blocks) || cap(th.accs) != len(th.accs) {
				t.Errorf("region %d thread %d: blocks %d/%d, accs %d/%d (len/cap): spare capacity the budget does not count",
					k.region, tid, len(th.blocks), cap(th.blocks), len(th.accs), cap(th.accs))
			}
			held += int64(cap(th.blocks))*int64(unsafe.Sizeof(blockRec{})) + int64(cap(th.accs))*int64(unsafe.Sizeof(trace.Access{}))
		}
	}
	if st := c.Stats(); st.Entries != f.Regions() || st.Bytes != held {
		t.Errorf("stats = %+v, but %d entries hold %d bytes", st, len(c.entries), held)
	}
}

// TestDecodedRegionsArePointerFree: neither element type of a cached region
// may hold anything the collector would follow — a later field of pointer,
// slice, string, map, channel, function or interface type would make every
// cached byte scannable again. blockRec must also stay within 24 bytes.
func TestDecodedRegionsArePointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map,
			reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s: cached regions must hold no pointers", path, typ.Kind())
		}
	}
	walk("blockRec", reflect.TypeOf(blockRec{}))
	walk("trace.Access", reflect.TypeOf(trace.Access{}))
	if n := unsafe.Sizeof(blockRec{}); n > 24 {
		t.Errorf("blockRec is %d bytes, want <= 24", n)
	}
}

// countingProgram counts Thread calls that reach the underlying program,
// to observe how much decode and stream work the cache performs.
type countingProgram struct {
	trace.Program
	threadCalls int
}

func (p *countingProgram) Region(i int) trace.Region {
	return countingRegion{p: p, r: p.Program.Region(i)}
}

type countingRegion struct {
	p *countingProgram
	r trace.Region
}

func (r countingRegion) Thread(tid int) trace.Stream {
	r.p.threadCalls++
	return r.r.Thread(tid)
}

// TestRegionCacheOversizedRegion: a region larger than the whole budget is
// never materialized (the decode aborts at the budget) and never retained;
// every replay streams directly instead of re-attempting the decode.
func TestRegionCacheOversizedRegion(t *testing.T) {
	prog := workload.New("npb-is", 2, workload.WithScale(0.05))
	f := record(t, prog)
	under := &countingProgram{Program: f}
	c := NewRegionCache(1) // 1 byte: nothing fits
	cp := c.Program(under, "tiny")
	sameBlocks(t, "first replay", drainAny(cp.Region(0).Thread(0)), drainAny(f.Region(0).Thread(0)))
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("oversized region retained: %+v", st)
	}
	for pass := 0; pass < 2; pass++ {
		for tid := 0; tid < f.Threads(); tid++ {
			sameBlocks(t, fmt.Sprintf("pass %d thread %d", pass, tid),
				drainAny(cp.Region(0).Thread(tid)), drainAny(f.Region(0).Thread(tid)))
		}
	}
	// One decode attempt ever, aborted inside thread 0 (1 underlying
	// call), then one direct stream per replay (the first included) — not
	// a fresh decode attempt per Thread call.
	if want := 1 + 1 + 2*f.Threads(); under.threadCalls != want {
		t.Errorf("underlying Thread calls = %d, want %d (one aborted decode, then direct streams)", under.threadCalls, want)
	}
}

// TestRegionCacheOverBudgetMidRegion: the budget covers the whole region,
// not one thread. A region whose threads fit one by one but not together is
// rejected, never retained, and replays block for block from the underlying
// streams.
func TestRegionCacheOverBudgetMidRegion(t *testing.T) {
	prog := workload.New("npb-ft", 4, workload.WithScale(0.05))
	f := record(t, prog, WithGzip(true))
	_, size, err := decodeRegion(f, 1, 1<<62)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeRegion(f, 1, size); err != nil {
		t.Fatalf("decode at exactly the region's size failed: %v", err)
	}
	if _, _, err := decodeRegion(f, 1, size-1); !errors.Is(err, errRegionTooLarge) {
		t.Fatalf("decode one byte under the region's size: err = %v, want errRegionTooLarge", err)
	}
	c := NewRegionCache(size / 2) // any one thread fits; all four do not
	cp := c.Program(f, "half")
	for pass := 0; pass < 2; pass++ {
		for tid := 0; tid < f.Threads(); tid++ {
			sameBlocks(t, fmt.Sprintf("pass %d thread %d", pass, tid),
				drainAny(cp.Region(1).Thread(tid)), drainAny(f.Region(1).Thread(tid)))
		}
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 {
		t.Errorf("over-budget region retained or served from cache: %+v", st)
	}
}

// TestRegionCacheConcurrent hammers one cache from many goroutines (run
// under -race) and checks single-flight decoding: every region is decoded
// at most once while concurrent replays are in flight.
func TestRegionCacheConcurrent(t *testing.T) {
	prog := workload.New("npb-ft", 4, workload.WithScale(0.05))
	f := record(t, prog)
	c := NewRegionCache(256 << 20)
	cp := c.Program(f, "conc")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < f.Regions(); r++ {
				for tid := 0; tid < f.Threads(); tid++ {
					n := len(drainAny(cp.Region(r).Thread(tid)))
					if tid == 0 && n == 0 {
						t.Errorf("goroutine %d region %d: empty replay", g, r)
					}
					_ = n
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != int64(f.Regions()) {
		t.Errorf("misses = %d, want %d (single-flight decode)", st.Misses, f.Regions())
	}
}

// errStream reports an error after one block, mimicking a corrupt chunk.
type errStream struct{ n int }

func (s *errStream) Next(be *trace.BlockExec) bool {
	if s.n > 0 {
		return false
	}
	s.n++
	*be = trace.BlockExec{Block: 1, Instrs: 1}
	return true
}
func (s *errStream) Err() error { return errors.New("synthetic corruption") }

type errRegion struct{}

func (errRegion) Thread(int) trace.Stream { return &errStream{} }

type errProgram struct{}

func (errProgram) Name() string            { return "err" }
func (errProgram) Threads() int            { return 1 }
func (errProgram) Regions() int            { return 1 }
func (errProgram) Region(int) trace.Region { return errRegion{} }

// TestRegionCacheDecodeErrorFallsBack: failed decodes are not cached and
// replay falls back to the underlying stream, preserving Err reporting;
// the failure is remembered, so later replays skip the decode attempt.
func TestRegionCacheDecodeErrorFallsBack(t *testing.T) {
	under := &countingProgram{Program: errProgram{}}
	c := NewRegionCache(1 << 20)
	cp := c.Program(under, "bad")
	for i := 0; i < 2; i++ {
		s := cp.Region(0).Thread(0)
		drainAny(s)
		es, ok := s.(interface{ Err() error })
		if !ok || es.Err() == nil {
			t.Errorf("replay %d: fallback stream lost its Err reporting", i)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Errorf("failed decode retained: %+v", st)
	}
	// First replay: one decode attempt plus the direct fallback stream;
	// second replay: direct stream only, no re-decode.
	if under.threadCalls != 3 {
		t.Errorf("underlying Thread calls = %d, want 3 (decode once, then stream directly)", under.threadCalls)
	}
}

// corruptThreadProgram replays a real program except that one thread of
// every region fails after its first block, like a chunk corrupt past its
// header.
type corruptThreadProgram struct {
	trace.Program
	bad int
}

func (p corruptThreadProgram) Region(i int) trace.Region {
	return corruptThreadRegion{Region: p.Program.Region(i), bad: p.bad}
}

type corruptThreadRegion struct {
	trace.Region
	bad int
}

func (r corruptThreadRegion) Thread(tid int) trace.Stream {
	if tid == r.bad {
		return &errStream{}
	}
	return r.Region.Thread(tid)
}

// TestRegionCacheDecodeErrorInOneThread: an error in any one thread of a
// region — not just the first — fails the whole region: nothing is cached, the healthy threads replay
// block for block from the underlying streams, and the broken one keeps its
// Err.
func TestRegionCacheDecodeErrorInOneThread(t *testing.T) {
	prog := workload.New("npb-ft", 4, workload.WithScale(0.05))
	f := record(t, prog)
	for bad := 0; bad < f.Threads(); bad++ {
		under := corruptThreadProgram{Program: f, bad: bad}
		c := NewRegionCache(64 << 20)
		cp := c.Program(under, "corrupt")
		for pass := 0; pass < 2; pass++ {
			for tid := 0; tid < f.Threads(); tid++ {
				s := cp.Region(2).Thread(tid)
				got := drainAny(s)
				if tid == bad {
					if es, ok := s.(interface{ Err() error }); !ok || es.Err() == nil {
						t.Errorf("bad thread %d pass %d: fallback stream lost its Err", bad, pass)
					}
					continue
				}
				sameBlocks(t, fmt.Sprintf("bad thread %d pass %d thread %d", bad, pass, tid),
					got, drainAny(f.Region(2).Thread(tid)))
			}
		}
		if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 {
			t.Errorf("bad thread %d: failed region retained or served from cache: %+v", bad, st)
		}
	}
}

// TestCachedReplayZeroAllocs is the allocation-regression cap of the
// ISSUE: a warm cached replay — stream handle included — performs zero
// allocations.
func TestCachedReplayZeroAllocs(t *testing.T) {
	prog := workload.New("npb-is", 2, workload.WithScale(0.05))
	f := record(t, prog)
	c := NewRegionCache(256 << 20)
	cp := c.Program(f, "alloc-test")
	var be trace.BlockExec
	warm := func() {
		s := cp.Region(0).Thread(0)
		for s.Next(&be) {
		}
	}
	warm() // populate the cache and the stream pool
	allocs := testing.AllocsPerRun(200, warm)
	if allocs >= 1 {
		t.Errorf("warm cached replay allocates %.1f times per run, want 0", allocs)
	}
}

// TestChunkStreamSteadyStateAllocs caps the cache-miss decode path: once a
// stream's scratch buffers have grown, each Next is allocation-free.
func TestChunkStreamSteadyStateAllocs(t *testing.T) {
	prog := workload.New("npb-is", 2, workload.WithScale(0.05))
	for _, gz := range []bool{false, true} {
		f := record(t, prog, WithGzip(gz))
		s, err := f.stream(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		var be trace.BlockExec
		if !s.Next(&be) { // grow scratch on the first block
			t.Fatal("empty stream")
		}
		allocs := testing.AllocsPerRun(500, func() {
			if !s.done {
				s.Next(&be)
			}
		})
		if allocs >= 1 {
			t.Errorf("gzip=%v: steady-state Next allocates %.1f times, want 0", gz, allocs)
		}
		if s.Err() != nil {
			t.Fatal(s.Err())
		}
	}
}
