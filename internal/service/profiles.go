package service

import (
	"fmt"
	"strings"
	"sync"

	"barrierpoint/internal/par"
	"barrierpoint/internal/profile"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
)

// Per-region profile cache plumbing. Region profiles are keyed in the store
// by region content digest and codec version (see the store package doc),
// so a profile cached while a trace streamed in (Manager.IngestTrace) serves
// any later analysis of any trace containing that region, under any
// signature or clustering knob.
//
// The digests are kept too: the region-digest index is an ordinary artifact
// of the trace (tracefile.DigestIndexName: keyed by the trace's content key
// and the digest framing version) listing every region's digest in region
// order, one hex line each. IngestTrace writes it from the digests the
// streaming decode computed anyway; the first analysis writes it for a trace
// that arrived another way (ImportTrace, a worker's fetch). It
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

// cachedProfile decodes a region's cached profile blob. A nil blob is a
// miss; so is an undecodable one (foreign bytes, a torn write from a
// pre-fsync store version), removed here because profiles publish
// exclusively and it would otherwise trip every later analysis.
func cachedProfile(st *store.Store, digest string, blob []byte) *signature.RegionData {
	if blob == nil {
		return nil
	}
	rd, err := signature.DecodeRegionData(blob)
	if err != nil {
		_ = st.RemoveProfile(digest, signature.CodecVersion) // on failure the blob stays and the next analysis tries again
		return nil
	}
	return rd
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
// Each distinct region digest is resolved once, in parallel across digests
// — from the profile cache (store.GetProfiles, one read per file), else by
// profiling the first region that carries it — and the profiles computed
// are published as one batch (store.PutProfiles; a failure fails the call).
// Regions with equal content share one read-only *signature.RegionData and
// count as cached. Results are ordered by region index and bit-identical to
// a direct profiling pass (the codec round-trips exact float bits). prog is
// the replay view to profile misses through (a replay-cache wrapper of f,
// or f itself).
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
	var firstDigests []string
	for i, d := range digests {
		if _, ok := classOf[d]; !ok {
			classOf[d] = len(first)
			first, firstDigests = append(first, i), append(firstDigests, d)
		}
	}

	blobs := st.GetProfiles(signature.CodecVersion, firstDigests)
	distinct := make([]*signature.RegionData, len(first))
	var mu sync.Mutex
	fresh := make(map[string][]byte) // computed here, published below
	par.For(len(first), func(c int) {
		if distinct[c] = cachedProfile(st, firstDigests[c], blobs[c]); distinct[c] != nil {
			return
		}
		distinct[c] = profile.Region(prog.Region(first[c]), f.Threads())
		blob := signature.EncodeRegionData(distinct[c])
		mu.Lock()
		fresh[firstDigests[c]] = blob
		mu.Unlock()
	})
	if _, err := st.PutProfiles(signature.CodecVersion, fresh); err != nil {
		return nil, stats, fmt.Errorf("service: storing profiles: %w", err)
	}
	out := make([]*signature.RegionData, n)
	for i, d := range digests {
		out[i] = distinct[classOf[d]]
	}
	stats.Computed = len(fresh)
	stats.Cached = n - stats.Computed
	return out, stats, nil
}
