package service

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"barrierpoint/internal/profile"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
)

// Per-region profile cache plumbing.
//
// Region profiles (per-thread BBV + LDV + instruction counts) are keyed in
// the store by (region content digest, codec version) — see
// store.PutProfile. The digest is computed from the region's encoded chunk
// payloads (tracefile.File.RegionDigest), so a profile cached while a
// trace streamed in (Manager.IngestTrace) is found by any later analysis
// of any trace containing that region. The profile is independent of every
// signature and clustering knob (signature.Options are applied by
// signature.Build after the fact), so re-clustering with a different K,
// scale or signature variant reuses all profiles and pays only k-means.

// ProfileStats reports where an analysis's region profiles came from.
type ProfileStats struct {
	Regions  int `json:"regions"`
	Cached   int `json:"cached"`
	Computed int `json:"computed"`
}

func (s *ProfileStats) add(o ProfileStats) {
	s.Regions += o.Regions
	s.Cached += o.Cached
	s.Computed += o.Computed
}

// cachedProfile loads and decodes the profile for one region digest. A
// missing entry or an undecodable blob (foreign bytes, torn write from a
// pre-fsync store version) is a miss, never an error: the caller
// recomputes and overwrites.
func cachedProfile(st *store.Store, digest string) *signature.RegionData {
	blob, err := st.GetProfile(digest, signature.CodecVersion)
	if err != nil {
		return nil
	}
	rd, err := signature.DecodeRegionData(blob)
	if err != nil {
		return nil
	}
	return rd
}

// profileRegion profiles one region and caches the result under its
// digest, reporting whether this call created the store entry (false when
// a concurrent writer got there first). Cache-write failures fail the
// call: a store that cannot write profiles will not get further than the
// selection artifact either, and failing here keeps the ingest/analyze
// invariants ("by 201 the profiles are in the store") honest.
func profileRegion(st *store.Store, r trace.Region, threads int, digest string) (*signature.RegionData, bool, error) {
	rd := profile.Region(r, threads)
	existed, err := st.PutProfile(digest, signature.CodecVersion, signature.EncodeRegionData(rd))
	if err != nil {
		return nil, false, err
	}
	return rd, !existed, nil
}

// profileFlight is a single-flight over the region digests of one
// profilesFor or IngestTrace call. A trace that repeats region content hands
// the same digest to several pool workers at once; without a claim they all
// miss the store, all profile the region and all count it as computed. The
// first worker to claim a digest resolves it (store hit or profile + put);
// every later one, in flight or long after, gets that result and counts as
// a cache hit, so a call computes each distinct digest at most once. The
// shared *signature.RegionData is never written after it is built.
type profileFlight struct {
	mu    sync.Mutex
	calls map[string]*profileCall
}

type profileCall struct {
	done chan struct{} // closed once rd and err are set
	rd   *signature.RegionData
	err  error
}

// do runs resolve for the first caller of digest and returns its result to
// every caller. computed is resolve's own report for that first caller and
// false for the others.
func (f *profileFlight) do(digest string, resolve func() (rd *signature.RegionData, computed bool, err error)) (*signature.RegionData, bool, error) {
	f.mu.Lock()
	if c, ok := f.calls[digest]; ok {
		f.mu.Unlock()
		<-c.done
		return c.rd, false, c.err
	}
	if f.calls == nil {
		f.calls = make(map[string]*profileCall)
	}
	c := &profileCall{done: make(chan struct{})}
	f.calls[digest] = c
	f.mu.Unlock()
	defer close(c.done) // also on a panic out of resolve: waiters must not hang
	var computed bool
	c.rd, computed, c.err = resolve()
	return c.rd, computed, c.err
}

// profilesFor collects the per-region profiles of an open trace, serving
// each region from the profile cache and computing + caching misses, in
// parallel across regions like profile.Program. Results are ordered by
// region index and bit-identical to a direct profiling pass (the codec
// round-trips exact float bits), so selections built from them match the
// cold path byte for byte. prog is the replay view to profile misses
// through (the caller's replay-cache wrapper of f, or f itself).
func profilesFor(st *store.Store, f *tracefile.File, prog trace.Program) ([]*signature.RegionData, ProfileStats, error) {
	n := f.Regions()
	out := make([]*signature.RegionData, n)
	stats := ProfileStats{Regions: n}
	var cached, computed atomic.Int64
	var flight profileFlight

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				digest, err := f.RegionDigest(i)
				if err == nil {
					var fresh bool
					out[i], fresh, err = flight.do(digest, func() (*signature.RegionData, bool, error) {
						if rd := cachedProfile(st, digest); rd != nil {
							return rd, false, nil
						}
						rd, _, err := profileRegion(st, prog.Region(i), f.Threads(), digest)
						return rd, err == nil, err
					})
					if err == nil {
						if fresh {
							computed.Add(1)
						} else {
							cached.Add(1)
						}
						continue
					}
				}
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("service: profiling region %d: %w", i, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, stats, firstErr
	}
	stats.Cached = int(cached.Load())
	stats.Computed = int(computed.Load())
	return out, stats, nil
}
