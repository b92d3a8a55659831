package service

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"barrierpoint/internal/profile"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/store"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
)

// IngestResult describes one trace upload consumed by IngestTrace.
type IngestResult struct {
	Key     string `json:"key"`     // content key of the stored trace
	Existed bool   `json:"existed"` // the store already held these bytes
	Name    string `json:"name"`
	Threads int    `json:"threads"`
	Regions int    `json:"regions"`
	// ProfilesCached counts regions whose profile was already in the store
	// (re-upload of shared content); ProfilesComputed counts profiles this
	// ingest computed and cached.
	ProfilesCached   int `json:"profiles_cached"`
	ProfilesComputed int `json:"profiles_computed"`
}

// IngestTrace consumes one trace upload: the bytes are hashed and
// persisted through a durable store.TraceWriter while, concurrently, each
// region is profiled into memory the moment its last byte arrives. Once the
// stream has validated, the new profiles are published as one batch under
// their regions' content digests (store.PutProfiles), early too whenever
// store.MaxPack are pending, and only then is the trace committed: on
// success every region profile is already in the store, with the trace's
// region-digest index beside it (see profiles.go) — an analyze submitted
// right after profiles nothing and reads no chunk of the trace.
//
// Failure leaves no partial state: a decode error, a publish error or a
// commit error aborts the trace write (the temp file is removed, the key
// never becomes visible) and removes exactly the profile entries this
// call created — profiles that pre-existed (shared region content) are
// untouched, as is everything else in the store.
func (m *Manager) IngestTrace(r io.Reader) (IngestResult, error) {
	tw, err := m.st.NewTraceWriter()
	if err != nil {
		return IngestResult{}, err
	}
	var (
		mu       sync.Mutex
		pending  = make(map[string][]byte) // profiled, not yet published
		created  []string                  // digests whose profile entry this ingest created
		computed int
		cached   atomic.Int64
		corrupt  error // the first region that failed to decode
	)
	// publish publishes the pending profiles if at least atLeast are pending.
	publish := func(atLeast int) error {
		mu.Lock()
		defer mu.Unlock()
		if len(pending) < atLeast {
			return nil
		}
		c, err := m.st.PutProfiles(signature.CodecVersion, pending)
		created, computed, pending = append(created, c...), computed+len(pending), make(map[string][]byte)
		return err
	}
	committed := false
	defer func() {
		if committed {
			return
		}
		tw.Abort()
		// Mirror RemoveTrace cleanup: a failed upload must not orphan
		// profile artifacts for a trace that was never stored. PutProfiles
		// publishes exclusively, so each digest here was created by this
		// ingest alone — cleanup cannot race another ingest's claim of
		// creation. One narrow window remains: a concurrent ingest of
		// overlapping region content may have counted one of these entries
		// as a cache hit before we remove it; its trace's first analyze
		// recomputes the profile from the stored bytes, so the result is
		// unchanged and the cache self-heals.
		for _, d := range created {
			_ = m.st.RemoveProfile(d, signature.CodecVersion)
		}
	}()

	// Profiling runs on a bounded pool beside the decode; the small channel
	// buffer gives backpressure, so a fast uploader cannot queue unbounded
	// decoded regions ahead of the profilers.
	workers := runtime.GOMAXPROCS(0)
	work := make(chan tracefile.RegionChunks, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rc := range work {
				if m.st.HasProfile(rc.Digest, signature.CodecVersion) {
					cached.Add(1)
					continue
				}
				r := trace.CheckedRegion{Region: rc.Region()}
				blob := signature.EncodeRegionData(profile.Region(&r, len(rc.Chunks)))
				mu.Lock()
				if err := r.Err(); err != nil {
					corrupt = cmp.Or(corrupt, fmt.Errorf("%w: region %d: %w", tracefile.ErrFormat, rc.Index, err))
				} else {
					pending[rc.Digest] = blob
				}
				mu.Unlock()
			}
		}()
	}

	var digests []string // every region's, in region order: the digest index
	seen := make(map[string]bool)
	decode := func() (tracefile.StreamInfo, error) {
		// Drain the pool on every exit, including a panic out of DecodeStream
		// or the tee'd writer: an HTTP server recovers handler panics, and a
		// stranded pool of workers per bad request would accumulate silently.
		defer func() { close(work); wg.Wait() }()
		return tracefile.DecodeStream(io.TeeReader(r, tw), func(rc tracefile.RegionChunks) error {
			digests = append(digests, rc.Digest)
			if seen[rc.Digest] {
				// Repeated region content is resolved once, by the pool worker
				// that got its first occurrence; the repeats count as cache
				// hits and no two workers ever hold the same digest.
				cached.Add(1)
				return nil
			}
			seen[rc.Digest] = true
			work <- rc
			return publish(store.MaxPack)
		})
	}
	info, err := decode()
	if err = cmp.Or(err, corrupt); err == nil {
		err = publish(0)
	}
	if err != nil {
		return IngestResult{}, err
	}

	key, existed, err := tw.Commit()
	if err != nil {
		return IngestResult{}, err
	}
	committed = true
	if !m.st.HasArtifact(key, tracefile.DigestIndexName) {
		// Best effort: the upload is durable and complete without its index,
		// and the first analysis writes the one that is missing.
		_ = m.st.PutArtifact(key, tracefile.DigestIndexName, encodeDigestIndex(digests))
	}
	m.pipe.ingestedTraces.Add(1)
	m.pipe.ingestedProfiles.Add(int64(computed))
	m.pipe.profileCacheHits.Add(cached.Load())
	m.pipe.profileComputed.Add(int64(computed))
	return IngestResult{
		Key:              key,
		Existed:          existed,
		Name:             info.Name,
		Threads:          info.Threads,
		Regions:          info.Regions,
		ProfilesCached:   int(cached.Load()),
		ProfilesComputed: computed,
	}, nil
}
