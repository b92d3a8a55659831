package service

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync/atomic"

	"barrierpoint/internal/par"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
)

// Per-region profile cache plumbing. Region profiles are keyed in the store
// by region content digest and codec version (see the store package doc),
// so a profile cached by one trace's profile pass serves any later analysis
// of any trace containing that region, under any signature or clustering
// knob. The profile pass (profilePass, ingest.go) is the only producer of
// both profiles and digests: an upload runs it as the bytes stream in
// (Manager.IngestTrace), and an analysis that misses runs it over the
// stored trace (profilesFor).
//
// The digests are kept too: the region-digest index is an ordinary artifact
// of the trace (tracefile.DigestIndexName: keyed by the trace's content key
// and the digest framing version) listing every region's digest in region
// order, one hex line each. It only ever saves work: an index that is
// missing, unreadable, of the wrong length or not made of digests is a miss
// — the analysis runs the profile pass and overwrites it — so a bad index
// can change how long an analysis takes, never what it selects.

// ProfileStats reports where an analysis's region profiles came from.
type ProfileStats struct {
	Regions  int `json:"regions"`
	Cached   int `json:"cached"`
	Computed int `json:"computed"`
	// IndexHit reports that no profile pass ran: the region digests came
	// from the trace's digest index and every profile from the store, so
	// the analysis read no chunk of the trace file.
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

// profilesFor collects the per-region profiles of a stored, open trace. The
// hit path reads the digest index, the distinct digests' profiles
// (store.GetProfiles, one read per file) and decodes them in parallel.
// Any miss — no valid index, a profile missing or undecodable — runs the
// profile pass over the stored trace, rewrites the index and reads again; a
// second pass recomputes what the first skipped because a damaged entry was
// still in place (the read after it removes one). Regions with equal content
// share one read-only *signature.RegionData. Results are ordered by region
// index and bit-identical to a direct profiling pass (the codec round-trips
// exact float bits).
func profilesFor(st *store.Store, key string, f *tracefile.File) ([]*signature.RegionData, ProfileStats, error) {
	stats := ProfileStats{Regions: f.Regions(), Cached: f.Regions(), IndexHit: true}
	if b, err := st.GetArtifact(key, tracefile.DigestIndexName); err == nil {
		if digests := parseDigestIndex(b, f.Regions()); digests != nil {
			if out := cachedProfiles(st, digests); out != nil {
				return out, stats, nil
			}
		}
	}
	stats.IndexHit = false
	path, err := st.TracePath(key)
	if err != nil {
		return nil, stats, err
	}
	r, err := os.Open(path)
	if err != nil {
		return nil, stats, err
	}
	defer r.Close()
	for range 2 {
		_, digests, computed, err := profilePass(st, io.NewSectionReader(r, 0, math.MaxInt64), nil)
		if err != nil {
			return nil, stats, fmt.Errorf("service: profiling stored trace %s: %w", key, err)
		}
		// The index is an optimisation: failing to write it costs the next
		// analysis this same pass, nothing else.
		_ = st.PutArtifact(key, tracefile.DigestIndexName, encodeDigestIndex(digests))
		stats.Computed += computed
		stats.Cached -= computed
		if out := cachedProfiles(st, digests); out != nil {
			return out, stats, nil
		}
	}
	return nil, stats, errors.New("service: region profiles still missing after profiling the stored trace")
}

// cachedProfiles returns the stored profiles of the regions with the given
// digests, resolving each distinct digest once, or nil if any is a miss.
func cachedProfiles(st *store.Store, digests []string) []*signature.RegionData {
	classOf := make(map[string]int, len(digests)) // digest -> position in distinct
	var distinctDigests []string
	for _, d := range digests {
		if _, ok := classOf[d]; !ok {
			classOf[d] = len(distinctDigests)
			distinctDigests = append(distinctDigests, d)
		}
	}
	blobs := st.GetProfiles(signature.CodecVersion, distinctDigests)
	distinct := make([]*signature.RegionData, len(distinctDigests))
	var missed atomic.Bool
	par.For(len(distinct), func(c int) {
		// Every blob is decoded, so one read removes every damaged entry.
		if distinct[c] = cachedProfile(st, distinctDigests[c], blobs[c]); distinct[c] == nil {
			missed.Store(true)
		}
	})
	if missed.Load() {
		return nil
	}
	out := make([]*signature.RegionData, len(digests))
	for i, d := range digests {
		out[i] = distinct[classOf[d]]
	}
	return out
}
