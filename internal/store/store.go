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
// The key of a trace is the lowercase hex SHA-256 of its file bytes, so a
// byte-identical trace uploaded twice — or recorded independently on two
// machines — lands on the same path and is stored once. Artifacts are named
// by the caller (see internal/service for the naming scheme: selection,
// estimate and ground-truth artifacts keyed by analysis config, machine
// config and warmup mode). One artifact is not a result but an index: the
// trace's region-digest index (tracefile.DigestIndexName) lists its regions'
// content digests, written by the streaming ingest — or by the first
// analysis of a trace that arrived another way — so that analyses look
// their profiles up without re-hashing the trace. Like every artifact it is
// keyed by the trace's content key and goes with RemoveTrace; its readers
// validate it and treat a bad one as absent (internal/service, profiles.go).
//
// Per-region profiles are addressed not by trace but by the region's own
// content digest (tracefile.File.RegionDigest) plus the encoding version
// (signature.CodecVersion), so they are shared by every trace containing
// that region and by every clustering configuration — re-clustering with a
// different K or signature variant reuses all of them and pays only
// k-means (see internal/service).
//
// All writes go through a temp file in the destination directory followed
// by an atomic rename, so concurrent writers (several jobs, or a CLI racing
// a server on the same store) can only ever observe absent or complete
// entries, never torn ones. Writes additionally fsync the temp file before
// the rename and the directory after it, so an entry whose write has been
// acknowledged (an upload's 201, a WAL-logged artifact) survives a crash —
// a half-written temp file from a crashed writer is invisible to readers
// and swept on the next Open.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"barrierpoint/internal/fault"
	"barrierpoint/internal/tracefile"
)

// ErrNotFound reports a missing trace or artifact.
var ErrNotFound = errors.New("store: not found")

// KeyLen is the length of a trace key: a lowercase hex SHA-256 digest.
const KeyLen = 2 * sha256.Size

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

// FileKey computes the content key of the trace file at path.
func FileKey(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	return ReaderKey(f)
}

// Store is a content-addressed trace and artifact store rooted at one
// directory. Methods are safe for concurrent use from multiple goroutines
// (and, thanks to atomic renames, from multiple processes).
type Store struct {
	root string
}

// Open opens (creating if needed) the store rooted at dir. Stale temp
// files left behind by crashed writers are swept from the content
// directories; they are invisible to readers either way (nothing lists or
// opens `.put-*` names), so the sweep only reclaims disk.
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

// sweepTemps removes orphaned write temps older than tempMaxAge from the
// traces and profiles directories. Errors are deliberately ignored: the
// sweep is best-effort hygiene, and a failure (permissions, races with
// another sweeper) must not block opening the store.
func (s *Store) sweepTemps() {
	cutoff := time.Now().Add(-tempMaxAge)
	for _, d := range []string{"traces", "profiles"} {
		ents, err := os.ReadDir(filepath.Join(s.root, d))
		if err != nil {
			continue
		}
		for _, e := range ents {
			if !strings.HasPrefix(e.Name(), ".put-") {
				continue
			}
			if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(filepath.Join(s.root, d, e.Name()))
			}
		}
	}
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
// A TraceWriter is single-use and not safe for concurrent Writes.
type TraceWriter struct {
	tmp *os.File
	dir string
	h   hash.Hash
}

// NewTraceWriter starts a trace write. Exactly one of Commit or Abort must
// eventually be called.
func (s *Store) NewTraceWriter() (*TraceWriter, error) {
	dir := filepath.Join(s.root, "traces")
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &TraceWriter{tmp: tmp, dir: dir, h: sha256.New()}, nil
}

// Write implements io.Writer.
func (w *TraceWriter) Write(p []byte) (int, error) {
	if w.tmp == nil {
		return 0, fmt.Errorf("store: write after Commit/Abort")
	}
	n, err := w.tmp.Write(p)
	w.h.Write(p[:n])
	if err != nil {
		return n, fmt.Errorf("store: writing trace: %w", err)
	}
	return n, nil
}

// Commit publishes the written bytes under their content key, which it
// returns. If a byte-identical trace is already stored the temp copy is
// discarded and existed is true. The temp file is fsynced before it is
// published and the traces directory after, so a trace whose Commit has
// returned survives a crash; a crash before Commit leaves only an
// invisible temp file. On error the temp file is cleaned up (no Abort
// needed).
func (w *TraceWriter) Commit() (key string, existed bool, err error) {
	if w.tmp == nil {
		return "", false, fmt.Errorf("store: Commit after Commit/Abort")
	}
	tmp := w.tmp
	w.tmp = nil
	key = hex.EncodeToString(w.h.Sum(nil))
	if existed, err = publish(tmp, filepath.Join(w.dir, key+".bptrace"), true); err != nil {
		return "", false, err
	}
	return key, existed, nil
}

// Abort discards the written bytes. Safe to call after Commit (a no-op).
func (w *TraceWriter) Abort() {
	if w.tmp == nil {
		return
	}
	w.tmp.Close()
	os.Remove(w.tmp.Name())
	w.tmp = nil
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
	if _, err := io.Copy(w, r); err != nil {
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
	ents, err := os.ReadDir(filepath.Join(s.root, "traces"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var keys []string
	for _, e := range ents {
		name := e.Name()
		if len(name) == KeyLen+len(".bptrace") && filepath.Ext(name) == ".bptrace" {
			if k := name[:KeyLen]; ValidKey(k) {
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// readBlob, hasBlob, removeBlob, listBlobs and putBlob are the file-level
// halves of the artifact, campaign-manifest and profile methods; checking
// keys and names and the fault-injection sites stay with those.

// readBlob reads the blob at path; a missing one is ErrNotFound, named by
// what's parts joined (only then: reads that hit build no string).
func readBlob(path string, what ...string) ([]byte, error) {
	b, err := os.ReadFile(path)
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

// putBlob durably writes data as dir/name, creating dir, replacing the blob.
func putBlob(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err := writeDurable(dir, name, data, false)
	return err
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

// publish makes the bytes written to tmp durable under the name dst in
// tmp's own directory: fsync, close, then rename over dst — or, for
// create-once entries (excl), hard-link, which fails if dst already exists,
// so among concurrent publishers of one name exactly one observes
// existed=false and the losers' bytes are discarded (fine for
// content-addressed entries, where every writer's bytes are equivalent) —
// then fsync the directory. A create-once entry found already there was made
// durable by its creator: tmp is discarded without the sync, so a re-upload
// does not write back megabytes it is about to delete. It is the one publish
// path behind traces, artifacts, campaign manifests and profiles; tmp is
// gone when it returns.
func publish(tmp *os.File, dst string, excl bool) (existed bool, err error) {
	defer os.Remove(tmp.Name()) // nothing left to remove after a rename
	if excl && hasBlob(dst) {
		tmp.Close()
		return true, nil
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return false, fmt.Errorf("store: syncing %s: %w", filepath.Base(dst), err)
	}
	if err := tmp.Close(); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if excl {
		err = os.Link(tmp.Name(), dst)
		if os.IsExist(err) {
			return true, nil
		}
	} else {
		err = os.Rename(tmp.Name(), dst)
	}
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if err := syncDir(filepath.Dir(dst)); err != nil {
		// The entry is visible but not yet known durable. Report the
		// failure rather than pretend durability.
		return false, fmt.Errorf("store: syncing %s: %w", filepath.Dir(dst), err)
	}
	return false, nil
}

// writeDurable writes data to a temp file in dir and publishes it as
// dir/name: overwriting, or create-once when excl.
func writeDurable(dir, name string, data []byte, excl bool) (existed bool, err error) {
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false, fmt.Errorf("store: writing %s: %w", name, err)
	}
	return publish(tmp, filepath.Join(dir, name), excl)
}

// PutArtifact atomically stores the named artifact for the trace,
// overwriting any previous value. The write is durable: temp file and
// directory are fsynced around the rename.
func (s *Store) PutArtifact(key, name string, data []byte) error {
	if err := s.checkArtifact(key, name); err != nil {
		return err
	}
	if err := fault.Inject("store.put-artifact"); err != nil {
		return err
	}
	return putBlob(s.artifactDir(key), name, data)
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
	return putBlob(filepath.Join(s.root, "campaigns"), name, data)
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
