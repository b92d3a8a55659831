// Package store is a content-addressed, on-disk store for recorded traces
// and the analysis artifacts derived from them. It is the shared artifact
// layer behind cmd/bptool's -cache flag and cmd/bpserve's job service: both
// address the same trace by the same key and reuse the same cached
// selections and estimates, so the "one-time cost" analysis of the paper's
// Fig. 2 is truly paid once per trace content.
//
// # Layout
//
// A store is a directory:
//
//	<root>/traces/<key>.bptrace        recorded traces, named by content
//	<root>/artifacts/<key>/<name>      derived artifacts for that trace
//	<root>/profiles/<digest>.<codec>   per-region profiles, named by region content
//
// A name is a plain file or a link to a pack, one file of entries published
// together (see putBlobs); a read of a name returns its own entry.
//
// The key of a trace is the lowercase hex SHA-256 of its file bytes, so a
// byte-identical trace uploaded twice — or recorded independently on two
// machines — lands on the same path and is stored once. Artifacts are named
// by the caller (see internal/service for the naming scheme: selection,
// estimate and ground-truth artifacts keyed by analysis config, machine
// config and warmup mode). One artifact is not a result but an index, the
// trace's region-digest index (see internal/service, profiles.go).
//
// Per-region profiles are addressed not by trace but by the region's own
// content digest (the Digest tracefile.DecodeStream computes for it) plus
// the encoding version (signature.CodecVersion), so they are shared by
// every trace containing that region and by every clustering configuration
// — re-clustering with a different K or signature variant reuses all of
// them and pays only k-means (see internal/service, whose one profile pass
// is their only producer).
//
// All writes go through a temp file in the destination directory, renamed or
// linked to its names, so concurrent writers (several jobs, or a CLI racing
// a server on the same store) only ever observe absent or complete entries.
// A batch fsyncs its temp file before the first name appears and the
// directory after the last — one data and one directory fsync however many
// names — so an acknowledged write (an upload's 201, a WAL-logged artifact)
// survives a crash, which leaves a temp file (invisible, swept on the next
// Open), some of a batch's names linked to its complete pack (the rest are
// misses), or all of them. A pack damaged later, its header and length in
// disagreement, is a miss under every name, healed where misses recompute.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"barrierpoint/internal/fault"
	"barrierpoint/internal/tracefile"
)

// ErrNotFound reports a missing trace or artifact.
var ErrNotFound = errors.New("store: not found")

var (
	keyRe      = regexp.MustCompile(`^[0-9a-f]{64}$`)
	artifactRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)
)

// ValidKey reports whether k is a well-formed trace key.
func ValidKey(k string) bool { return keyRe.MatchString(k) }

// HashJSON returns the first 12 hex digits of the SHA-256 of v's
// canonical JSON encoding: the store-wide convention for embedding a
// config's identity in an artifact name (see internal/service and
// internal/farm for the naming schemes). Configs are flat structs of
// scalars, so encoding is deterministic.
func HashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// All config types marshal; a failure is a programming error.
		panic(fmt.Sprintf("store: marshaling config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// SanitizeLabel maps a label onto the artifact-name charset ("mru+prev"
// → "mru-prev") so mode strings can appear in artifact names.
func SanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

// ReaderKey computes the content key of a trace read from r.
func ReaderKey(r io.Reader) (string, error) {
	h := sha256.New()
	if _, err := io.Copy(h, r); err != nil {
		return "", fmt.Errorf("store: hashing trace: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Store is a content-addressed trace and artifact store rooted at one
// directory. Methods are safe for concurrent use from multiple goroutines
// (and, thanks to atomic renames, from multiple processes).
type Store struct {
	root      string
	publishes atomic.Int64
}

// Publishes counts s's durable publishes: one data and one directory fsync each.
func (s *Store) Publishes() int64 { return s.publishes.Load() }

// Open opens (creating if needed) the store rooted at dir. Stale temp
// files left behind by crashed writers (a job journal's compaction beside
// it included) are swept from anywhere under dir; they are invisible to
// readers either way (nothing lists or opens `.put-*` names), so the sweep
// only reclaims disk.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "traces"), filepath.Join(dir, "artifacts"), filepath.Join(dir, "profiles")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{root: dir}
	s.sweepTemps()
	return s, nil
}

// tempMaxAge is how old a `.put-*` temp file must be before sweepTemps
// reclaims it. The grace period keeps a concurrent live writer (another
// process mid-PutTrace on the same store) safe from the sweep.
const tempMaxAge = time.Hour

// sweepTemps removes `.put-*` temps older than tempMaxAge anywhere in the
// store. It is best-effort: no failure may block opening the store.
func (s *Store) sweepTemps() {
	cutoff := time.Now().Add(-tempMaxAge)
	filepath.WalkDir(s.root, func(path string, e fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(e.Name(), ".put-") {
			if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(path)
			}
		}
		return nil
	})
}

// syncDir fsyncs a directory, making a just-renamed entry durable. An
// unsupported-operation error (some filesystems reject directory fsync) is
// ignored; any other failure is reported.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) tracePath(key string) string {
	return filepath.Join(s.root, "traces", key+".bptrace")
}

func (s *Store) artifactDir(key string) string {
	return filepath.Join(s.root, "artifacts", key)
}

// TraceWriter accumulates one trace into the store: bytes stream into a
// temp file while being hashed, and Commit atomically publishes them under
// the content key. It exists so an ingest pipeline can tee an upload into
// the store while simultaneously decoding it (see service.IngestTrace):
// the caller owns the copy loop instead of handing PutTrace a reader.
// Write copies p into pooled 64 KiB buffers, and ReadFrom (PutTrace) reads
// into them, at most four in flight, for the writer's own goroutine to hash
// and write beside the caller's decoding; a write error surfaces at the next
// Write or read or at Commit, which publishes nothing. A TraceWriter is
// single-use and not safe for concurrent Writes.
type TraceWriter struct {
	tmp   *os.File
	s     *Store
	h     hash.Hash
	queue chan *[]byte          // cap 2: with one in drain and one in Write, four in flight
	done  chan struct{}         // closed when drain returns
	err   atomic.Pointer[error] // drain's first write error
}

var traceBufs = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// NewTraceWriter starts a trace write. Exactly one of Commit or Abort must
// eventually be called; both wait for the writer's goroutine.
func (s *Store) NewTraceWriter() (*TraceWriter, error) {
	tmp, err := os.CreateTemp(filepath.Join(s.root, "traces"), ".put-*")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	w := &TraceWriter{tmp: tmp, s: s, h: sha256.New(), queue: make(chan *[]byte, 2), done: make(chan struct{})}
	go w.drain()
	return w, nil
}

func (w *TraceWriter) drain() {
	defer close(w.done)
	for b := range w.queue {
		if _, err := w.tmp.Write(*b); err != nil {
			err = fmt.Errorf("store: writing trace: %w", err)
			w.err.CompareAndSwap(nil, &err)
		}
		w.h.Write(*b)
		traceBufs.Put(b)
	}
}

// Write implements io.Writer.
func (w *TraceWriter) Write(p []byte) (int, error) {
	if w.tmp == nil {
		return 0, fmt.Errorf("store: write after Commit/Abort")
	} else if err := w.err.Load(); err != nil {
		return 0, *err
	}
	for rest := p; len(rest) > 0; {
		b := traceBufs.Get().(*[]byte)
		*b = append((*b)[:0], rest[:min(len(rest), cap(*b))]...)
		rest = rest[len(*b):]
		w.queue <- b
	}
	return len(p), nil
}

// ReadFrom implements io.ReaderFrom: it reads r to EOF straight into the
// pooled buffers, filling each before queueing it, so a copy from a file or
// a response body costs no second copy.
func (w *TraceWriter) ReadFrom(r io.Reader) (n int64, err error) {
	for err == nil {
		if _, err = w.Write(nil); err != nil { // sticky, or after Commit/Abort
			return n, err
		}
		b := traceBufs.Get().(*[]byte)
		*b = (*b)[:cap(*b)]
		k := 0
		for m := 0; k < len(*b) && err == nil; k += m {
			m, err = r.Read((*b)[k:])
		}
		*b, n = (*b)[:k], n+int64(k)
		w.queue <- b
	}
	if err == io.EOF {
		return n, nil
	}
	return n, err
}

// Commit durably publishes the written bytes under their content key, which
// it returns; existed reports a byte-identical trace was already stored and
// the copy discarded. A crash before Commit leaves only an invisible temp
// file. On error the temp file is cleaned up (no Abort needed).
func (w *TraceWriter) Commit() (key string, existed bool, err error) {
	if w.tmp == nil {
		return "", false, fmt.Errorf("store: Commit after Commit/Abort")
	}
	close(w.queue)
	<-w.done
	tmp := w.tmp
	w.tmp = nil
	if err := w.err.Load(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", false, *err
	}
	key = hex.EncodeToString(w.h.Sum(nil))
	created, err := publish(tmp, []string{key + ".bptrace"}, true, &w.s.publishes)
	if err != nil {
		return "", false, err
	}
	return key, len(created) == 0, nil
}

var errAborted = errors.New("store: trace write aborted")

// Abort discards the written bytes: it fails the write, so Commit removes
// the temp file. Safe to call after Commit (a no-op).
func (w *TraceWriter) Abort() {
	if w.tmp != nil {
		w.err.CompareAndSwap(nil, &errAborted)
		w.Commit()
	}
}

// PutTrace stores the trace read from r under its content key, which it
// returns. If a byte-identical trace is already stored, the new copy is
// discarded and existed is true. PutTrace does not validate the trace
// format; callers that accept untrusted bytes should OpenTrace the key
// afterwards and RemoveTrace on failure.
func (s *Store) PutTrace(r io.Reader) (key string, existed bool, err error) {
	w, err := s.NewTraceWriter()
	if err != nil {
		return "", false, err
	}
	if _, err := w.ReadFrom(r); err != nil {
		w.Abort()
		return "", false, err
	}
	return w.Commit()
}

// ImportTrace stores the trace file at path under its content key.
func (s *Store) ImportTrace(path string) (key string, existed bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", false, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return s.PutTrace(f)
}

// HasTrace reports whether the store holds a trace with the given key.
func (s *Store) HasTrace(key string) bool {
	return ValidKey(key) && hasBlob(s.tracePath(key))
}

// TracePath returns the on-disk path of the stored trace, or ErrNotFound.
func (s *Store) TracePath(key string) (string, error) {
	if !ValidKey(key) {
		return "", fmt.Errorf("store: malformed trace key %q", key)
	}
	p := s.tracePath(key)
	if !hasBlob(p) {
		return "", fmt.Errorf("store: trace %s: %w", key, ErrNotFound)
	}
	return p, nil
}

// OpenTrace opens the stored trace for streaming replay.
func (s *Store) OpenTrace(key string) (*tracefile.File, error) {
	p, err := s.TracePath(key)
	if err != nil {
		return nil, err
	}
	return tracefile.Open(p)
}

// RemoveTrace deletes a stored trace and all artifacts derived from it.
func (s *Store) RemoveTrace(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: malformed trace key %q", key)
	}
	if err := removeBlob(s.tracePath(key)); err != nil {
		return err
	}
	if err := os.RemoveAll(s.artifactDir(key)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Traces lists the keys of all stored traces, sorted.
func (s *Store) Traces() ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(s.root, "traces")) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var keys []string
	for _, e := range ents {
		if k, ok := strings.CutSuffix(e.Name(), ".bptrace"); ok && ValidKey(k) {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// readBlob, hasBlob, removeBlob, listBlobs and putBlobs are the file-level
// halves of the artifact, campaign-manifest and profile methods; checking
// keys and names and the fault-injection sites stay with those.

// readBlob reads the blob at path, or its own entry of the pack it links to.
// A missing one (or a bad pack) is ErrNotFound, named by what's parts joined
// (only then: reads that hit build no string).
func readBlob(path string, what ...string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err == nil && isPack(b) {
		if b = unpack(b)[filepath.Base(path)]; b == nil {
			err = os.ErrNotExist
		}
	}
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %s: %w", strings.Join(what, ""), ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

// hasBlob reports whether a blob exists at path.
func hasBlob(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// removeBlob deletes the blob at path, if there is one.
func removeBlob(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// listBlobs returns the well-formed blob names in dir, sorted; a directory
// that does not exist yet lists as empty.
func listBlobs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range ents {
		if artifactRe.MatchString(e.Name()) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// A pack is a batch of blobs in one file: packMagic, a "name length" line
// per blob, an empty line, then the blobs in that order. No blob the store
// holds starts with the magic's NUL byte, so none reads as a pack.
const packMagic = "\x00bppack1\n"

// MaxPack is the most blobs one publish packs, which bounds a batch's memory
// and a pack's link count; putBlobs splits larger batches.
const MaxPack = 256

func isPack(b []byte) bool { return bytes.HasPrefix(b, []byte(packMagic)) }

// unpack returns pack b's blobs by name, nil if its header and length disagree.
func unpack(b []byte) map[string][]byte {
	head, body, ok := bytes.Cut(b[len(packMagic):], []byte("\n\n"))
	blobs := make(map[string][]byte)
	for _, line := range strings.Split(string(head), "\n") {
		name, size, _ := strings.Cut(line, " ")
		n, err := strconv.Atoi(size)
		if !ok || err != nil || n < 0 || n > len(body) {
			return nil
		}
		blobs[name], body = body[:n:n], body[n:]
	}
	if len(body) != 0 {
		return nil
	}
	return blobs
}

// putBlobs durably writes blobs (name → bytes) into dir, creating it, in one
// publish per MaxPack names: a plain file when it carries one name, a pack
// otherwise. It returns the names it published, also on error.
func (s *Store) putBlobs(dir string, blobs map[string][]byte, excl bool) (published []string, err error) {
	for names := slices.Sorted(maps.Keys(blobs)); len(names) > 0; {
		batch := names[:min(len(names), MaxPack)]
		names = names[len(batch):]
		data := blobs[batch[0]]
		if len(batch) > 1 {
			data = []byte(packMagic)
			for _, name := range batch {
				data = fmt.Appendf(data, "%s %d\n", name, len(blobs[name]))
			}
			data = append(data, '\n')
			for _, name := range batch {
				data = append(data, blobs[name]...)
			}
		}
		tmp, err := os.CreateTemp(dir, ".put-*")
		if os.IsNotExist(err) && os.MkdirAll(dir, 0o755) == nil {
			tmp, err = os.CreateTemp(dir, ".put-*")
		}
		if err != nil {
			return published, fmt.Errorf("store: %w", err)
		}
		if _, err := tmp.Write(data); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return published, fmt.Errorf("store: writing %s: %w", batch[0], err)
		}
		p, err := publish(tmp, batch, excl, &s.publishes)
		if published = append(published, p...); err != nil {
			return published, err
		}
	}
	return published, nil
}

func (s *Store) checkArtifact(key, name string) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: malformed trace key %q", key)
	}
	if !artifactRe.MatchString(name) {
		return fmt.Errorf("store: malformed artifact name %q", name)
	}
	return nil
}

// GetArtifact returns the named artifact cached for the trace, or an error
// wrapping ErrNotFound when it has not been stored.
func (s *Store) GetArtifact(key, name string) ([]byte, error) {
	if err := s.checkArtifact(key, name); err != nil {
		return nil, err
	}
	if err := fault.Inject("store.get-artifact"); err != nil {
		return nil, err
	}
	return readBlob(filepath.Join(s.artifactDir(key), name), "artifact ", key, "/", name)
}

// HasArtifact reports whether the named artifact is cached for the trace.
func (s *Store) HasArtifact(key, name string) bool {
	return s.checkArtifact(key, name) == nil && hasBlob(filepath.Join(s.artifactDir(key), name))
}

// publish makes the bytes written to tmp durable under names in tmp's own
// directory: fsync and close tmp, give it every name, fsync the directory. A
// create-once (excl) name is a hard link, which fails if it exists, so among
// concurrent publishers of one name exactly one creates it (every writer's
// bytes are equivalent); one already there was made durable by its creator
// and is dropped before the sync, so a re-upload does not write back
// megabytes it is about to delete. Any other name is replaced by renaming tmp,
// or a link to it, over it. It is the one publish path behind traces,
// artifacts, campaign manifests, profiles and the compacted job journal
// (WAL.Compact); it counts itself in publishes (a Store's, for Publishes;
// nil counts nothing), removes tmp and returns the names it created or
// replaced, also on error.
func publish(tmp *os.File, names []string, excl bool, publishes *atomic.Int64) (published []string, err error) {
	defer os.Remove(tmp.Name()) // nothing left to remove after a rename
	defer tmp.Close()
	dir := filepath.Dir(tmp.Name())
	if excl {
		names = slices.DeleteFunc(names, func(name string) bool { return hasBlob(filepath.Join(dir, name)) })
	}
	if len(names) == 0 {
		return nil, nil
	}
	if err := tmp.Sync(); err != nil {
		return nil, fmt.Errorf("store: syncing %s: %w", names[0], err)
	}
	if err := tmp.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if publishes != nil {
		publishes.Add(1)
	}
	for i, name := range names {
		dst := filepath.Join(dir, name)
		switch {
		case excl:
			if err = os.Link(tmp.Name(), dst); os.IsExist(err) {
				continue
			}
		case i == len(names)-1:
			err = os.Rename(tmp.Name(), dst)
		default:
			aside := fmt.Sprintf("%s.%d", tmp.Name(), i)
			if err = os.Link(tmp.Name(), aside); err == nil {
				err = os.Rename(aside, dst)
			}
		}
		if err != nil {
			return published, fmt.Errorf("store: %w", err)
		}
		published = append(published, name)
	}
	if err := syncDir(dir); err != nil {
		// The entries are visible but not yet known durable. Report the
		// failure rather than pretend durability.
		return published, fmt.Errorf("store: syncing %s: %w", dir, err)
	}
	return published, nil
}

// PutArtifact atomically and durably stores the named artifact for the
// trace, overwriting any previous value.
func (s *Store) PutArtifact(key, name string, data []byte) error {
	return s.PutArtifacts(key, map[string][]byte{name: data})
}

// PutArtifacts is PutArtifact for a batch, published as one (see putBlobs).
func (s *Store) PutArtifacts(key string, blobs map[string][]byte) error {
	for name := range blobs {
		if err := s.checkArtifact(key, name); err != nil {
			return err
		}
	}
	if err := fault.Inject("store.put-artifact"); err != nil {
		return err
	}
	_, err := s.putBlobs(s.artifactDir(key), blobs, false)
	return err
}

// Campaign manifests (internal/campaign) are small JSON progress records
// for resumable sweep runs. They live beside the content-addressed data —
// <root>/campaigns/<name> — so a campaign resumes wherever its store
// goes: copy the store to another machine and the sweep picks up from its
// last completed cell there.

// GetCampaign returns the named campaign manifest, or an error wrapping
// ErrNotFound when no campaign of that name has been saved.
func (s *Store) GetCampaign(name string) ([]byte, error) {
	if !artifactRe.MatchString(name) {
		return nil, fmt.Errorf("store: malformed campaign name %q", name)
	}
	return readBlob(filepath.Join(s.root, "campaigns", name), "campaign ", name)
}

// PutCampaign atomically stores the named campaign manifest, overwriting
// any previous value. The write is durable: temp file and directory are
// fsynced around the rename.
func (s *Store) PutCampaign(name string, data []byte) error {
	if !artifactRe.MatchString(name) {
		return fmt.Errorf("store: malformed campaign name %q", name)
	}
	_, err := s.putBlobs(filepath.Join(s.root, "campaigns"), map[string][]byte{name: data}, false)
	return err
}

// Campaigns lists the saved campaign manifest names, sorted. A store with
// no campaigns yields an empty list, not an error.
func (s *Store) Campaigns() ([]string, error) {
	return listBlobs(filepath.Join(s.root, "campaigns"))
}

// RemoveArtifact invalidates one cached artifact. Removing an artifact
// that does not exist is not an error.
func (s *Store) RemoveArtifact(key, name string) error {
	if err := s.checkArtifact(key, name); err != nil {
		return err
	}
	return removeBlob(filepath.Join(s.artifactDir(key), name))
}

// Artifacts lists the artifact names cached for the trace, sorted. A trace
// with no artifacts yields an empty list, not an error.
func (s *Store) Artifacts(key string) ([]string, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("store: malformed trace key %q", key)
	}
	return listBlobs(s.artifactDir(key))
}
