package service

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"barrierpoint/internal/signature"
	"barrierpoint/internal/tracefile"
)

// IngestResult describes one trace upload consumed by IngestTrace.
type IngestResult struct {
	Key     string `json:"key"`     // content key of the stored trace
	Existed bool   `json:"existed"` // the store already held these bytes
	// Streamed reports the upload was decoded incrementally (version-2
	// format): per-region profiles were computed and cached while the body
	// was still transferring, so by the time the caller sees this result a
	// subsequent analyze pays zero profiling. Version-1 uploads are stored
	// and validated but not profiled in flight.
	Streamed bool   `json:"streamed"`
	Name     string `json:"name"`
	Threads  int    `json:"threads"`
	Regions  int    `json:"regions"`
	// ProfilesCached counts regions whose profile was already in the store
	// (re-upload of shared content); ProfilesComputed counts profiles this
	// ingest computed and cached.
	ProfilesCached   int `json:"profiles_cached"`
	ProfilesComputed int `json:"profiles_computed"`
}

// IngestTrace consumes one trace upload: the bytes are hashed and
// persisted through a durable store.TraceWriter while, concurrently, each
// region is profiled the moment its last byte arrives and the profile is
// cached under the region's content digest. On success the trace is
// committed and every region profile is already in the store, with the
// trace's region-digest index beside it (see profiles.go) — an analyze
// submitted right after profiles nothing and reads no chunk of the trace.
//
// Failure leaves no partial state: a decode error, a profiling error or a
// commit error aborts the trace write (the temp file is removed, the key
// never becomes visible) and removes exactly the profile entries this
// call created — profiles that pre-existed (shared region content) are
// untouched, as is everything else in the store.
//
// Version-1 uploads carry no inline framing, so they are stored, then
// validated by reopening the committed file; profiling happens lazily at
// first analyze instead.
func (m *Manager) IngestTrace(r io.Reader) (IngestResult, error) {
	tw, err := m.st.NewTraceWriter()
	if err != nil {
		return IngestResult{}, err
	}
	var (
		createdMu sync.Mutex
		created   []string // digests whose profile entry this ingest created
	)
	committed := false
	defer func() {
		if committed {
			return
		}
		tw.Abort()
		// Mirror RemoveTrace cleanup: a failed upload must not orphan
		// profile artifacts for a trace that was never stored. PutProfile
		// publishes exclusively, so each digest here was created by this
		// ingest alone — cleanup cannot race another ingest's claim of
		// creation. One narrow window remains: a concurrent ingest of
		// overlapping region content may have counted one of these entries
		// as a cache hit before we remove it; its trace's first analyze
		// recomputes the profile from the stored bytes, so the result is
		// unchanged and the cache self-heals.
		createdMu.Lock()
		defer createdMu.Unlock()
		for _, d := range created {
			_ = m.st.RemoveProfile(d, signature.CodecVersion)
		}
	}()

	var cached, computed atomic.Int64
	var (
		errMu   sync.Mutex
		profErr error
	)
	setErr := func(err error) {
		errMu.Lock()
		if profErr == nil {
			profErr = err
		}
		errMu.Unlock()
	}
	getErr := func() error {
		errMu.Lock()
		defer errMu.Unlock()
		return profErr
	}

	// Profiling runs on a bounded pool beside the decode; the small channel
	// buffer gives backpressure, so a fast uploader cannot queue unbounded
	// decoded regions ahead of the profilers.
	workers := runtime.GOMAXPROCS(0)
	work := make(chan tracefile.RegionChunks, workers)
	var wg sync.WaitGroup
	var closeOnce sync.Once
	closeWork := func() { closeOnce.Do(func() { close(work) }) }
	// Drain the pool on every exit, including a panic out of DecodeStream
	// or the tee'd writer: an HTTP server recovers handler panics, and a
	// stranded pool of workers per bad request would accumulate silently.
	// Registered after the cleanup defer above so the workers are gone
	// (LIFO order) before cleanup reads the digests they created.
	defer func() {
		closeWork()
		wg.Wait()
	}()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rc := range work {
				if getErr() != nil {
					continue
				}
				if m.st.HasProfile(rc.Digest, signature.CodecVersion) {
					cached.Add(1)
					continue
				}
				_, createdNow, err := profileRegion(m.st, rc.Region(), len(rc.Chunks), rc.Digest)
				if err != nil {
					setErr(fmt.Errorf("service: profiling region %d during ingest: %w", rc.Index, err))
					continue
				}
				if createdNow {
					createdMu.Lock()
					created = append(created, rc.Digest)
					createdMu.Unlock()
				}
				computed.Add(1)
			}
		}()
	}

	var digests []string // every region's, in region order: the digest index
	seen := make(map[string]bool)
	info, derr := tracefile.DecodeStream(io.TeeReader(r, tw), func(rc tracefile.RegionChunks) error {
		if err := getErr(); err != nil {
			return err // a profiler failed; stop consuming the upload
		}
		digests = append(digests, rc.Digest)
		if seen[rc.Digest] {
			// Repeated region content is resolved once, by the pool worker
			// that got its first occurrence; the repeats count as cache hits
			// and no two workers ever hold the same digest.
			cached.Add(1)
			return nil
		}
		seen[rc.Digest] = true
		work <- rc
		return nil
	})
	closeWork()
	wg.Wait()
	if derr == nil {
		derr = getErr()
	}
	if derr != nil {
		return IngestResult{}, derr
	}

	key, existed, err := tw.Commit()
	if err != nil {
		return IngestResult{}, err
	}
	committed = true
	if info.Streamed && !m.st.HasArtifact(key, tracefile.DigestIndexName) {
		// Best effort: the upload is durable and complete without its index,
		// and the first analysis writes the one that is missing.
		_ = m.st.PutArtifact(key, tracefile.DigestIndexName, encodeDigestIndex(digests))
	}
	res := IngestResult{
		Key:              key,
		Existed:          existed,
		Streamed:         info.Streamed,
		Name:             info.Name,
		Threads:          info.Threads,
		Regions:          info.Regions,
		ProfilesCached:   int(cached.Load()),
		ProfilesComputed: int(computed.Load()),
	}
	if !info.Streamed {
		// Legacy v1 bytes were stored unvalidated (no inline framing to
		// check); reopen the committed file so a corrupt upload is rejected
		// now, not at first analyze.
		f, err := m.st.OpenTrace(key)
		if err != nil {
			if !existed {
				_ = m.st.RemoveTrace(key)
			}
			return IngestResult{}, fmt.Errorf("%w: uploaded v1 trace does not parse: %v", tracefile.ErrFormat, err)
		}
		res.Name, res.Threads, res.Regions = f.Name(), f.Threads(), f.Regions()
		f.Close()
	}
	m.pipe.ingestedTraces.Add(1)
	m.pipe.ingestedProfiles.Add(computed.Load())
	m.pipe.profileCacheHits.Add(cached.Load())
	m.pipe.profileComputed.Add(computed.Load())
	return res, nil
}
