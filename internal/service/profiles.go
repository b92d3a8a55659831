package service

import (
	"fmt"
	"runtime"
	"strings"
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
//
// The digests are kept too: the region-digest index is an ordinary artifact
// of the trace (tracefile.DigestIndexName: keyed by the trace's content key
// and the digest framing version) listing every region's digest in region
// order, one hex line each. IngestTrace writes it from the digests the
// streaming decode computed anyway; the first analysis writes it for a trace
// that arrived another way (v1 upload, ImportTrace, a worker's fetch). It
// only ever saves work: an index that is missing, unreadable, of the wrong
// length or not made of digests is a miss — regionDigests hashes the trace
// file and overwrites it — so a bad index can change how long an analysis
// takes, never what it selects.

// ProfileStats reports where an analysis's region profiles came from.
type ProfileStats struct {
	Regions  int `json:"regions"`
	Cached   int `json:"cached"`
	Computed int `json:"computed"`
	// IndexHit reports that the region digests came from the trace's
	// digest index: the analysis read no chunk of the trace file to learn
	// its cache keys.
	IndexHit bool `json:"index_hit"`
}

// cachedProfile loads and decodes the profile for one region digest. A
// missing entry is a miss; so is an undecodable blob (foreign bytes, torn
// write from a pre-fsync store version), which is removed here because
// PutProfile publishes exclusively and would otherwise leave it in place
// for every later analysis to trip over. Either way the caller recomputes
// and stores the profile.
func cachedProfile(st *store.Store, digest string) *signature.RegionData {
	blob, err := st.GetProfile(digest, signature.CodecVersion)
	if err != nil {
		return nil
	}
	rd, err := signature.DecodeRegionData(blob)
	if err != nil {
		_ = st.RemoveProfile(digest, signature.CodecVersion) // on failure the blob stays and the next analysis tries again
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

// encodeDigestIndex renders region digests as a digest index.
func encodeDigestIndex(digests []string) []byte {
	return []byte(strings.Join(digests, "\n") + "\n")
}

// parseDigestIndex returns the digests of an index for a trace of the given
// region count, or nil unless it is exactly that many well-formed digests.
func parseDigestIndex(b []byte, regions int) []string {
	digests := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(digests) != regions {
		return nil
	}
	for _, d := range digests {
		if !store.ValidKey(d) { // a digest has a trace key's form: 64 hex digits
			return nil
		}
	}
	return digests
}

// regionDigests returns the content digest of every region of the stored
// trace, from its digest index when that holds (indexed is true), otherwise
// by hashing the trace file and (re)writing the index.
func regionDigests(st *store.Store, key string, f *tracefile.File) (digests []string, indexed bool, err error) {
	if b, err := st.GetArtifact(key, tracefile.DigestIndexName); err == nil {
		if digests = parseDigestIndex(b, f.Regions()); digests != nil {
			return digests, true, nil
		}
	}
	digests = make([]string, f.Regions())
	for i := range digests {
		if digests[i], err = f.RegionDigest(i); err != nil {
			return nil, false, fmt.Errorf("service: digesting region %d: %w", i, err)
		}
	}
	// The index is an optimisation: failing to write it costs the next
	// analysis this same pass, nothing else.
	_ = st.PutArtifact(key, tracefile.DigestIndexName, encodeDigestIndex(digests))
	return digests, false, nil
}

// profilesFor collects the per-region profiles of a stored, open trace.
// Each distinct region digest is resolved once — from the profile cache,
// else by profiling the first region that carries it and caching the
// result — in parallel across digests like profile.Program; regions with
// equal content share one read-only *signature.RegionData and count as
// cached. Results are ordered by region index and bit-identical to a
// direct profiling pass (the codec round-trips exact float bits), so
// selections built from them match the cold path byte for byte. prog is
// the replay view to profile misses through (the caller's replay-cache
// wrapper of f, or f itself).
func profilesFor(st *store.Store, key string, f *tracefile.File, prog trace.Program) ([]*signature.RegionData, ProfileStats, error) {
	n := f.Regions()
	stats := ProfileStats{Regions: n}
	digests, indexed, err := regionDigests(st, key, f)
	if err != nil {
		return nil, stats, err
	}
	stats.IndexHit = indexed
	classOf := make(map[string]int, n) // digest -> position in first
	var first []int                    // the first region carrying each distinct digest
	for i, d := range digests {
		if _, ok := classOf[d]; !ok {
			classOf[d] = len(first)
			first = append(first, i)
		}
	}

	distinct := make([]*signature.RegionData, len(first))
	errs := make([]error, len(first))
	var computed atomic.Int64
	var failed atomic.Bool
	next := make(chan int, len(first))
	for c := range first {
		next <- c
	}
	close(next)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(first)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range next {
				i := first[c]
				if distinct[c] = cachedProfile(st, digests[i]); distinct[c] != nil || failed.Load() {
					continue
				}
				if distinct[c], _, errs[c] = profileRegion(st, prog.Region(i), f.Threads(), digests[i]); errs[c] != nil {
					failed.Store(true) // the analysis is lost: stop profiling for it
				}
				computed.Add(1)
			}
		}()
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, stats, fmt.Errorf("service: profiling region %d: %w", first[c], err)
		}
	}
	out := make([]*signature.RegionData, n)
	for i, d := range digests {
		out[i] = distinct[classOf[d]]
	}
	stats.Computed = int(computed.Load())
	stats.Cached = n - stats.Computed
	return out, stats, nil
}
