package service

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"sync"

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

// IngestTrace consumes one trace upload: the profile pass (profilePass) runs
// over the bytes as they stream through a durable store.TraceWriter, and the
// trace is committed as the pass's last step. On success every region
// profile is already in the store, with the trace's region-digest index
// beside it (see profiles.go) — an analyze submitted right after runs no
// profile pass and reads no chunk of the trace.
//
// Failure leaves no partial state: a decode error, a publish error or a
// commit error aborts the trace write (the temp file is removed, the key
// never becomes visible) and removes exactly the profile entries this
// call created.
func (m *Manager) IngestTrace(r io.Reader) (IngestResult, error) {
	tw, err := m.st.NewTraceWriter()
	if err != nil {
		return IngestResult{}, err
	}
	defer tw.Abort() // a no-op after Commit
	var res IngestResult
	info, digests, computed, err := profilePass(m.st, io.TeeReader(r, tw), func() (err error) {
		res.Key, res.Existed, err = tw.Commit()
		return err
	})
	if err != nil {
		return IngestResult{}, err
	}
	if !m.st.HasArtifact(res.Key, tracefile.DigestIndexName) {
		// Best effort: the upload is durable and complete without its index,
		// and the first analysis writes the one that is missing.
		_ = m.st.PutArtifact(res.Key, tracefile.DigestIndexName, encodeDigestIndex(digests))
	}
	res.Name, res.Threads, res.Regions = info.Name, info.Threads, info.Regions
	res.ProfilesComputed, res.ProfilesCached = computed, info.Regions-computed
	m.pipe.ingestedTraces.Add(1)
	m.pipe.ingestedProfiles.Add(int64(computed))
	m.pipe.profileCacheHits.Add(int64(res.ProfilesCached))
	m.pipe.profileComputed.Add(int64(computed))
	return res, nil
}

// IngestProgram records p straight into IngestTrace through a pipe: the
// bytes are written once, and byte-identical content already filed (an
// earlier recording, an upload) is discarded at commit with its cached
// region profiles reused. Workload generation is deterministic, so a
// program's recording always lands on the same key.
func (m *Manager) IngestProgram(p trace.Program) (IngestResult, error) {
	pr, pw := io.Pipe()
	recorded := make(chan struct{})
	go func() {
		defer close(recorded)
		pw.CloseWithError(tracefile.Record(pw, p))
	}()
	res, err := m.IngestTrace(pr)
	// Unblock the recorder if ingest bailed before draining the pipe (e.g.
	// a failed temp-file write): its next write fails, and it returns.
	pr.CloseWithError(err)
	<-recorded
	return res, err
}

// profilePass is the one producer of region profiles and region digests: it
// decodes the trace read from r (tracefile.DecodeStream, which digests each
// region) and profiles every distinct region whose profile the store lacks,
// through trace.CheckedRegion, the moment its last byte arrives. New profiles
// are published under their digests in batches of store.MaxPack, and the
// rest once the whole stream has validated; then commit, if not nil, runs. A
// profile therefore only ever lands under the digest of the bytes it was
// computed from, and a chunk that does not decode fails the pass with
// tracefile.ErrFormat. It returns every region's digest in region order (the
// digest index) and how many profiles it computed; the other regions' were
// cached. If any step fails, it removes exactly the profile entries it
// created — profiles that pre-existed (shared region content) are untouched.
func profilePass(st *store.Store, r io.Reader, commit func() error) (info tracefile.StreamInfo, digests []string, computed int, err error) {
	var (
		mu      sync.Mutex
		pending = make(map[string][]byte) // profiled, not yet published
		created []string                  // digests whose profile entry this pass created
		corrupt error                     // the first region that failed to decode
	)
	// publish publishes the pending profiles if at least atLeast are pending.
	publish := func(atLeast int) error {
		mu.Lock()
		defer mu.Unlock()
		if len(pending) < atLeast {
			return nil
		}
		c, err := st.PutProfiles(signature.CodecVersion, pending)
		created, computed, pending = append(created, c...), computed+len(pending), make(map[string][]byte)
		return err
	}
	ok := false
	defer func() {
		if ok {
			return
		}
		// PutProfiles publishes exclusively, so each digest here was created
		// by this pass alone — cleanup cannot race another pass's claim of
		// creation. One narrow window remains: a concurrent pass over
		// overlapping region content may have counted one of these entries
		// as cached before we remove it; the analysis that then misses it
		// runs the pass over its stored trace, so the cache self-heals.
		for _, d := range created {
			_ = st.RemoveProfile(d, signature.CodecVersion)
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
				if st.HasProfile(rc.Digest, signature.CodecVersion) {
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

	seen := make(map[string]bool)
	decode := func() (tracefile.StreamInfo, error) {
		// Drain the pool on every exit, including a panic out of DecodeStream
		// or the tee'd writer: an HTTP server recovers handler panics, and a
		// stranded pool of workers per bad request would accumulate silently.
		defer func() { close(work); wg.Wait() }()
		return tracefile.DecodeStream(r, func(rc tracefile.RegionChunks) error {
			digests = append(digests, rc.Digest)
			if seen[rc.Digest] {
				// Repeated region content is resolved once, by the pool worker
				// that got its first occurrence, so no two workers ever hold
				// the same digest.
				return nil
			}
			seen[rc.Digest] = true
			work <- rc
			return publish(store.MaxPack)
		})
	}
	info, err = decode()
	if err = cmp.Or(err, corrupt); err == nil {
		err = publish(0)
	}
	if err == nil && commit != nil {
		err = commit()
	}
	ok = err == nil
	return info, digests, computed, err
}
