package tracefile

import (
	"container/list"
	"errors"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"barrierpoint/internal/trace"
)

// DefaultRegionCacheBytes is the default RegionCache budget: 256 MiB of
// decoded blocks, a few dozen scaled-down regions or a handful of
// full-size ones.
const DefaultRegionCacheBytes int64 = 256 << 20

// RegionCache is a bounded, content-keyed LRU cache of fully decoded
// inter-barrier regions. Replaying a region from a recorded trace costs a
// gunzip plus a varint decode of every chunk; the cache pays the decode once
// and serves every later replay from memory as a zero-copy, zero-allocation
// trace.Stream. The prefix pass, which reads each region once, goes past it
// (cachedFile.AppendAccesses). No command uses it: bpserve, bpworker and
// bptool stream every region. It is kept only for the end-to-end
// benchmark's tracefile.replay_cached_ms probe and the tests that compare a
// cached replay with a streamed one, and goes with that probe (ROADMAP item
// 2(c)).
//
// # Keys and identity
//
// Entries are keyed by (id, region index), where id is a caller-chosen
// content identity for the whole trace — by convention the store's
// SHA-256 trace key. Because the id names the trace bytes, any two Files
// opened over byte-identical traces (separate opens, the same store) share
// the entries of one cache. Callers without a content key must pass an id
// unique to the program instance.
//
// # Bounds and eviction
//
// The cache is bounded in bytes of decoded block and access data
// (maxBytes; see NewRegionCache), and the count is exact: a thread is
// decoded into scratch and then held as two slices allocated at their final
// length, an entry's size being their capacity in bytes. Neither element
// type holds a pointer, so the collector never scans what the cache holds,
// however much that is. Insertion evicts least-recently-used entries until
// the new total fits. A single region larger than the whole
// budget is never fully materialized: its decode aborts as soon as the
// accumulated size passes the budget, the region is remembered as
// uncacheable, and its replays — including the first — stream directly
// from the underlying Program. Decodes are single-flight: concurrent
// requests for one region (the profiler replays regions in parallel)
// perform one decode and share the result; each in-flight decode holds at
// most maxBytes of transient memory.
//
// # Equivalence
//
// A cached replay yields the exact BlockExec sequence of the underlying
// stream — same blocks, instruction counts, access addresses, write flags
// and branch bits — so signatures, selections, estimates and simulation
// results are bit-identical with and without the cache. Decode errors are
// never cached: a region whose chunks fail to decode is remembered as
// uncacheable and falls back to direct streaming, preserving the uncached
// error surface (Stream.Err).
//
// The zero value is not usable; call NewRegionCache. A nil *RegionCache
// is a valid no-op: Program returns its argument unwrapped.
type RegionCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[regionKey]*list.Element
	// skip records regions that must never be cached: their decode failed,
	// or was aborted because the region alone exceeds the whole byte
	// budget. Replays of a skipped region stream directly from the
	// underlying Program, so an oversized region costs one aborted decode
	// ever — not a decode attempt per Thread call. Entries are a few bytes
	// each and accrue only for pathological regions, so the set itself is
	// unbounded.
	skip map[regionKey]struct{}

	hits, misses, evictions, decodeNs int64
}

type regionKey struct {
	id     string
	region int
}

// cacheEntry is one decoded region. ready is closed when the decode
// completes; threads, size and err are immutable afterwards.
type cacheEntry struct {
	key     regionKey
	ready   chan struct{}
	threads []decodedThread
	size    int64
	err     error
}

// decodedThread is one thread's stream, decoded: fixed-width block records
// and, back to back in one arena in block order, their accesses. See "Bounds
// and eviction" for why both are exact-size and pointer-free.
type decodedThread struct {
	blocks []blockRec
	accs   []trace.Access
}

// blockRec is a trace.BlockExec with its Accs slice reduced to a length.
type blockRec struct {
	block, instrs int64
	accs          uint32
	branch, taken bool
}

// CacheStats is a point-in-time snapshot of cache activity.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	// DecodeNs is the cumulative wall-clock time spent decoding regions
	// (cache-miss work), including failed and budget-aborted decodes.
	DecodeNs int64 `json:"decode_ns"`
}

// NewRegionCache returns a cache bounded to maxBytes of decoded region
// data (DefaultRegionCacheBytes if maxBytes <= 0).
func NewRegionCache(maxBytes int64) *RegionCache {
	if maxBytes <= 0 {
		maxBytes = DefaultRegionCacheBytes
	}
	return &RegionCache{
		max:     maxBytes,
		ll:      list.New(),
		entries: make(map[regionKey]*list.Element),
		skip:    make(map[regionKey]struct{}),
	}
}

// Stats returns current cache counters.
func (c *RegionCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.max,
		DecodeNs:  c.decodeNs,
	}
}

// Program returns a view of p whose regions replay through the cache,
// keyed by the trace identity id (conventionally the store's SHA-256
// trace key). A nil cache or empty id returns p unchanged.
func (c *RegionCache) Program(p trace.Program, id string) trace.Program {
	if c == nil || id == "" {
		return p
	}
	cp := &cachedProgram{c: c, p: p, id: id}
	// Region wrappers are preallocated so Region+Thread on a warm cache is
	// allocation-free.
	cp.regions = make([]cachedRegion, p.Regions())
	for i := range cp.regions {
		cp.regions[i] = cachedRegion{cp: cp, idx: i}
	}
	if f, ok := p.(*File); ok {
		return &cachedFile{cp, f}
	}
	return cp
}

type cachedProgram struct {
	c       *RegionCache
	p       trace.Program
	id      string
	regions []cachedRegion
}

func (cp *cachedProgram) Name() string { return cp.p.Name() }
func (cp *cachedProgram) Threads() int { return cp.p.Threads() }
func (cp *cachedProgram) Regions() int { return cp.p.Regions() }
func (cp *cachedProgram) Region(i int) trace.Region {
	return &cp.regions[i]
}

type cachedRegion struct {
	cp  *cachedProgram
	idx int
}

// Thread implements trace.Region. On a cache hit (or after waiting out an
// in-flight decode) the returned stream iterates the decoded blocks with
// zero copies and zero allocations; for uncacheable regions (decode
// failure, or larger than the whole budget) it falls back to the
// underlying region's stream so error reporting and decode cost match
// uncached replay.
func (r *cachedRegion) Thread(tid int) trace.Stream {
	e := r.cp.c.region(r.cp.p, r.cp.id, r.idx)
	if e == nil || e.err != nil {
		return r.cp.p.Region(r.idx).Thread(tid)
	}
	s := blocksStreamPool.Get().(*blocksStream)
	s.decodedThread = e.threads[tid]
	s.pos, s.off = 0, 0
	s.served = false
	return s
}

// cachedFile is the view of a File, with the File's access-only reader; a
// view of any other program has none.
type cachedFile struct {
	*cachedProgram
	f *File
}

// AppendAccesses is File.AppendAccesses through the cache: a region it holds
// (or is decoding) is read from memory, any other decoded from the file and
// not inserted — a miss, timed on the decode clock.
// bptool's analysis fills its cache first, so here every read hits (npb-cg
// ×0.5, gzip, 8 cores, mru: 272 of 272; reading past the cache cost ~10%,
// 310 → 341 ms).
func (cf *cachedFile) AppendAccesses(dst []uint64, region, tid int) ([]uint64, error) {
	cp, c := cf.cachedProgram, cf.c
	c.mu.Lock()
	el, ok := c.entries[regionKey{cp.id, region}]
	if ok {
		c.ll.MoveToFront(el)
		c.hits++
	}
	c.mu.Unlock()
	if ok {
		e := el.Value.(*cacheEntry)
		<-e.ready
		if e.err == nil {
			return appendEntries(dst, e.threads[tid].accs), nil
		}
	}
	t0 := time.Now()
	dst, err := cf.f.AppendAccesses(dst, region, tid)
	c.mu.Lock()
	c.misses++
	c.decodeNs += time.Since(t0).Nanoseconds()
	c.mu.Unlock()
	return dst, err
}

// region returns the decoded entry for one region, decoding at most once
// per key across concurrent callers. A nil return means the region is
// known uncacheable and the caller must stream it directly.
func (c *RegionCache) region(p trace.Program, id string, idx int) *cacheEntry {
	k := regionKey{id, idx}
	c.mu.Lock()
	if _, ok := c.skip[k]; ok {
		c.misses++
		c.mu.Unlock()
		return nil
	}
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*cacheEntry)
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		<-e.ready
		return e
	}
	e := &cacheEntry{key: k, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.entries[k] = el
	c.misses++
	c.mu.Unlock()

	t0 := time.Now()
	threads, size, err := decodeRegion(p, idx, c.max)
	decodeDur := time.Since(t0)

	// Publish the result and account its size in one critical section:
	// eviction skips entries whose ready channel is still open, so closing
	// it under the same lock that adds the size keeps the byte accounting
	// consistent with the LRU contents.
	c.mu.Lock()
	c.decodeNs += decodeDur.Nanoseconds()
	e.threads, e.size, e.err = threads, size, err
	if err != nil {
		// Never retain failures (including budget-aborted decodes);
		// current waiters fall back to direct streams, and the skip mark
		// sends every later replay straight to the underlying stream.
		delete(c.entries, k)
		c.ll.Remove(el)
		c.skip[k] = struct{}{}
	} else {
		c.bytes += size
		c.evictLocked(el)
	}
	close(e.ready)
	c.mu.Unlock()
	return e
}

// evictLocked drops least-recently-used decoded entries until the budget
// holds, never evicting keep or entries still decoding (their size is
// unaccounted until they finish).
func (c *RegionCache) evictLocked(keep *list.Element) {
	for c.bytes > c.max {
		el := c.ll.Back()
		for el != nil && (el == keep || !decoded(el.Value.(*cacheEntry))) {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		e := el.Value.(*cacheEntry)
		delete(c.entries, e.key)
		c.ll.Remove(el)
		c.bytes -= e.size
		c.evictions++
	}
}

func decoded(e *cacheEntry) bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// errRegionTooLarge aborts a decode whose accumulated size passes the
// cache budget, so an oversized region never materializes more than the
// budget in memory before being rejected.
var errRegionTooLarge = errors.New("tracefile: decoded region exceeds replay cache budget")

// decodeScratch is where a thread is decoded before its length is known;
// pooled, so growing it by doubling is paid once, not once per region.
var decodeScratch = sync.Pool{New: func() any { return new(decodedThread) }}

// decodeRegion drains every thread stream of one region into exact-size
// decodedThreads — two allocations per thread — and returns the bytes they
// hold. It aborts with errRegionTooLarge as soon as that count passes limit.
func decodeRegion(p trace.Program, idx int, limit int64) ([]decodedThread, int64, error) {
	r := p.Region(idx)
	out := make([]decodedThread, p.Threads())
	var size int64
	const blockBytes = int64(unsafe.Sizeof(blockRec{}))
	const accBytes = int64(unsafe.Sizeof(trace.Access{}))
	sc := decodeScratch.Get().(*decodedThread)
	defer decodeScratch.Put(sc)
	for t := range out {
		s := r.Thread(t)
		sc.blocks, sc.accs = sc.blocks[:0], sc.accs[:0]
		var be trace.BlockExec
		for s.Next(&be) {
			size += blockBytes + int64(len(be.Accs))*accBytes
			if size > limit || uint64(len(be.Accs)) > math.MaxUint32 {
				return nil, 0, errRegionTooLarge
			}
			sc.blocks = append(sc.blocks, blockRec{int64(be.Block), int64(be.Instrs), uint32(len(be.Accs)), be.Branch, be.Taken})
			sc.accs = append(sc.accs, be.Accs...)
		}
		if err := trace.Err(s); err != nil {
			return nil, 0, err
		}
		out[t] = decodedThread{slices.Clip(slices.Clone(sc.blocks)), slices.Clip(slices.Clone(sc.accs))}
	}
	return out, size, nil
}

// blocksStream replays a decodedThread. Access slices point into the cached
// arena (zero-copy), which the Stream contract permits: consumers must
// finish with Accs before the next call and must not mutate it.
//
// Stream headers are pooled: the call to Next that reports exhaustion
// returns the header to the pool, so a full cached replay performs zero
// allocations. Per the trace.Stream contract a stream is dead once Next
// has returned false; calling Next again after that is unsupported (it
// may observe an unrelated stream's state).
type blocksStream struct {
	decodedThread
	pos, off int  // next block, and where its accesses start in accs
	served   bool // true once exhaustion has been reported and self returned
}

var blocksStreamPool = sync.Pool{New: func() any { return new(blocksStream) }}

// Next implements trace.Stream. be is filled field by field: assigning a
// BlockExec literal measures 2x slower here.
func (s *blocksStream) Next(be *trace.BlockExec) bool {
	if pos, blocks := s.pos, s.blocks; pos < len(blocks) {
		b := &blocks[pos]
		s.pos = pos + 1
		off := s.off
		end := off + int(b.accs)
		s.off = end
		be.Block, be.Instrs = int(b.block), int(b.instrs)
		be.Accs = s.accs[off:end:end]
		be.Branch, be.Taken = b.branch, b.taken
		return true
	}
	if !s.served {
		s.served = true
		s.decodedThread = decodedThread{}
		blocksStreamPool.Put(s)
	}
	return false
}

var (
	_ trace.Program = (*cachedProgram)(nil)
	_ trace.Region  = (*cachedRegion)(nil)
	_ trace.Stream  = (*blocksStream)(nil)
)
