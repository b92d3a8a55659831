package store

// Tests for the batch publish: n entries as one pack under n names, one data
// fsync and one directory fsync. The crash tests build by hand the states a
// crash can leave under the durability rule (an acknowledged write survives
// a crash that discards unflushed bytes): the pack is fsynced before its
// first name appears, so a crash leaves an unlinked temp, some names linked
// to the complete pack, or all of them, never a name over a torn pack. A
// truncated pack is damage after the fact.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// profileBatch returns n distinct digests with distinct blobs.
func profileBatch(n int) map[string][]byte {
	blobs := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		blobs[fmt.Sprintf("%064x", i+1)] = []byte(fmt.Sprintf("profile %d %s", i, strings.Repeat("x", i)))
	}
	return blobs
}

// inodes counts the distinct files behind the well-formed names in dir.
func inodes(t *testing.T, dir string) int {
	t.Helper()
	names, err := listBlobs(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []os.FileInfo
	for _, name := range names {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		seen := false
		for _, f := range files {
			seen = seen || os.SameFile(f, fi)
		}
		if !seen {
			files = append(files, fi)
		}
	}
	return len(files)
}

func openStore(t *testing.T) *Store {
	t.Helper()
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBatchPublish: a batch of profiles is one publish and one file linked
// under every name, each name reading its own entry through GetProfile and
// GetProfiles; a batch of one is a plain file holding exactly its bytes; a
// batch above MaxPack takes one publish per MaxPack.
func TestBatchPublish(t *testing.T) {
	st := openStore(t)
	blobs := profileBatch(5)
	created, err := st.PutProfiles("rd1", blobs)
	if err != nil || len(created) != len(blobs) {
		t.Fatalf("PutProfiles created %d of %d, err %v", len(created), len(blobs), err)
	}
	if st.Publishes() != 1 {
		t.Fatalf("%d publishes for one batch, want 1", st.Publishes())
	}
	profiles := filepath.Join(st.Root(), "profiles")
	if n := inodes(t, profiles); n != 1 {
		t.Fatalf("batch landed in %d files, want 1", n)
	}
	var digests []string
	for d, want := range blobs {
		digests = append(digests, d)
		if got, err := st.GetProfile(d, "rd1"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("GetProfile(%.8s) = %q, %v; want %q", d, got, err, want)
		}
	}
	for i, got := range st.GetProfiles("rd1", append(digests, strings.Repeat("0", 64))) {
		if i < len(digests) && !bytes.Equal(got, blobs[digests[i]]) || i == len(digests) && got != nil {
			t.Fatalf("GetProfiles[%d] = %q", i, got)
		}
	}

	one := strings.Repeat("ab", 32)
	if existed, err := st.PutProfile(one, "rd1", []byte("plain")); err != nil || existed {
		t.Fatalf("PutProfile: existed=%v err=%v", existed, err)
	}
	if b, err := os.ReadFile(filepath.Join(profiles, one+".rd1")); err != nil || string(b) != "plain" {
		t.Fatalf("a batch of one left %q, %v on disk; want the blob itself", b, err)
	}

	before := st.Publishes()
	if created, err := st.PutProfiles("rd2", profileBatch(MaxPack+1)); err != nil || len(created) != MaxPack+1 {
		t.Fatalf("PutProfiles over MaxPack: created %d, err %v", len(created), err)
	}
	if n := st.Publishes() - before; n != 2 {
		t.Fatalf("%d publishes for MaxPack+1 profiles, want 2", n)
	}
	assertNoTemps(t, st)
}

// TestBatchArtifacts: PutArtifacts publishes once, replaces names that
// exist, and GetArtifact reads each name's own entry.
func TestBatchArtifacts(t *testing.T) {
	st := openStore(t)
	key := strings.Repeat("0", 64)
	if err := st.PutArtifact(key, "b.json", []byte("old")); err != nil {
		t.Fatal(err)
	}
	batch := map[string][]byte{"a.json": []byte("A"), "b.json": []byte("B"), "c.json": []byte("C")}
	before := st.Publishes()
	if err := st.PutArtifacts(key, batch); err != nil {
		t.Fatal(err)
	}
	if n := st.Publishes() - before; n != 1 {
		t.Fatalf("%d publishes for one artifact batch, want 1", n)
	}
	for name, want := range batch {
		if got, err := st.GetArtifact(key, name); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("GetArtifact(%s) = %q, %v; want %q", name, got, err, want)
		}
	}
	if n := inodes(t, st.artifactDir(key)); n != 1 {
		t.Fatalf("artifact batch in %d files, want 1", n)
	}
	if err := st.PutArtifacts(key, map[string][]byte{"../x": nil}); err == nil {
		t.Fatal("PutArtifacts accepted a malformed name")
	}
	assertNoTemps(t, st)
}

// writePack leaves the pack PutProfiles writes for blobs as a temp file in
// dir, the state publish is in between its fsync and its first link, and
// returns its path and the names it is for.
func writePack(t *testing.T, dir string, blobs map[string][]byte, suffix string) (string, []string) {
	t.Helper()
	other := openStore(t)
	if _, err := other.PutProfiles(strings.TrimPrefix(suffix, "."), blobs); err != nil {
		t.Fatal(err)
	}
	var names []string
	for d := range blobs {
		names = append(names, d+suffix)
	}
	pack, err := os.ReadFile(filepath.Join(other.Root(), "profiles", names[0]))
	if err != nil || !isPack(pack) {
		t.Fatalf("no pack written: %v", err)
	}
	tmp := filepath.Join(dir, ".put-crashed")
	if err := os.WriteFile(tmp, pack, 0o644); err != nil {
		t.Fatal(err)
	}
	return tmp, names
}

// TestPackCrashBeforeLink: a pack fsynced but not yet linked is invisible
// to every read, and Open sweeps it once it is past the grace period.
func TestPackCrashBeforeLink(t *testing.T) {
	st := openStore(t)
	blobs := profileBatch(3)
	tmp, _ := writePack(t, filepath.Join(st.Root(), "profiles"), blobs, ".rd1")
	for d := range blobs {
		if st.HasProfile(d, "rd1") {
			t.Fatal("unlinked pack visible through HasProfile")
		}
		if _, err := st.GetProfile(d, "rd1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("GetProfile over an unlinked pack: %v", err)
		}
	}
	if _, err := Open(st.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatal("young pack temp swept inside the grace period")
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st.Root()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("aged pack temp not swept on Open")
	}
}

// TestPackPartialLinks: after a crash part way through linking, the linked
// names read complete and the rest are misses a later batch fills.
func TestPackPartialLinks(t *testing.T) {
	st := openStore(t)
	dir := filepath.Join(st.Root(), "profiles")
	blobs := profileBatch(4)
	tmp, names := writePack(t, dir, blobs, ".rd1")
	linked := names[:2]
	for _, name := range linked {
		if err := os.Link(tmp, filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range names {
		d := strings.TrimSuffix(name, ".rd1")
		got, err := st.GetProfile(d, "rd1")
		if isLinked := name == linked[0] || name == linked[1]; isLinked != (err == nil) || isLinked && !bytes.Equal(got, blobs[d]) {
			t.Fatalf("%s (linked %v): %q, %v", name, isLinked, got, err)
		}
	}
	created, err := st.PutProfiles("rd1", blobs)
	if err != nil || len(created) != 2 {
		t.Fatalf("refilling batch created %v, err %v; want the 2 unlinked", created, err)
	}
	for d, want := range blobs {
		if got, err := st.GetProfile(d, "rd1"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after refill %.8s = %q, %v", d, got, err)
		}
	}
}

// TestTruncatedPackIsAMiss: a pack whose header and length disagree is a
// miss under every name — for artifacts and profiles alike — and an
// analysis's read removes its profile names so the recompute can publish
// them again.
func TestTruncatedPackIsAMiss(t *testing.T) {
	st := openStore(t)
	blobs := profileBatch(3)
	key := strings.Repeat("0", 64)
	artifacts := map[string][]byte{"a.json": []byte("{}"), "b.json": []byte("[]")}
	if _, err := st.PutProfiles("rd1", blobs); err != nil {
		t.Fatal(err)
	}
	if err := st.PutArtifacts(key, artifacts); err != nil {
		t.Fatal(err)
	}
	var digests []string
	for d := range blobs {
		digests = append(digests, d)
	}
	for _, path := range []string{st.profilePath(digests[0], "rd1"), filepath.Join(st.artifactDir(key), "a.json")} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-1); err != nil {
			t.Fatal(err)
		}
	}
	for name := range artifacts {
		if _, err := st.GetArtifact(key, name); !errors.Is(err, ErrNotFound) {
			t.Fatalf("GetArtifact(%s) over a truncated pack: %v, want ErrNotFound", name, err)
		}
	}
	for _, d := range digests {
		if _, err := st.GetProfile(d, "rd1"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("GetProfile over a truncated pack: %v, want ErrNotFound", err)
		}
	}
	for i, b := range st.GetProfiles("rd1", digests) {
		if b != nil || st.HasProfile(digests[i], "rd1") {
			t.Fatalf("digest %d: %q read, name present %v; want a removed miss", i, b, st.HasProfile(digests[i], "rd1"))
		}
	}
	if created, err := st.PutProfiles("rd1", blobs); err != nil || len(created) != len(blobs) {
		t.Fatalf("republish created %d of %d, err %v", len(created), len(blobs), err)
	}
	for i, b := range st.GetProfiles("rd1", digests) {
		if !bytes.Equal(b, blobs[digests[i]]) {
			t.Fatalf("republished digest %d reads %q", i, b)
		}
	}
}

// TestConcurrentPutProfiles: overlapping batches published at once — two
// ingests of traces sharing region content — create every digest exactly
// once between them, and every name reads its own bytes.
func TestConcurrentPutProfiles(t *testing.T) {
	st := openStore(t)
	all := profileBatch(24)
	const writers = 6
	batches := make([]map[string][]byte, writers)
	for w := range batches {
		batches[w] = make(map[string][]byte)
		i := 0
		for d, b := range all {
			if i%3 != w%3 { // every digest in four of the six batches
				batches[w][d] = b
			}
			i++
		}
	}
	var wg sync.WaitGroup
	created := make([][]string, writers)
	errs := make([]error, writers)
	for w := range batches {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			created[w], errs[w] = st.PutProfiles("rd1", batches[w])
		}(w)
	}
	wg.Wait()
	creators := make(map[string]int)
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
		for _, d := range created[w] {
			creators[d]++
		}
	}
	for d, want := range all {
		if creators[d] != 1 {
			t.Fatalf("digest %.8s created %d times, want exactly once", d, creators[d])
		}
		if got, err := st.GetProfile(d, "rd1"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("digest %.8s reads %q, %v", d, got, err)
		}
	}
	assertNoTemps(t, st)
}

// TestOpenSweepsArtifactAndCampaignTemps: a crashed writer's temp in a
// trace's artifact directory or in campaigns/ is reclaimed on Open after
// the grace period, like one in traces/ or profiles/; a young one stays.
func TestOpenSweepsArtifactAndCampaignTemps(t *testing.T) {
	st := openStore(t)
	key := strings.Repeat("0", 64)
	if err := st.PutArtifact(key, "a.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	if err := st.PutCampaign("sweep", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	var aged, young []string
	for _, dir := range []string{st.artifactDir(key), filepath.Join(st.Root(), "campaigns")} {
		for _, name := range []string{".put-old", ".put-young"} {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			if name == ".put-old" {
				if err := os.Chtimes(path, old, old); err != nil {
					t.Fatal(err)
				}
				aged = append(aged, path)
			} else {
				young = append(young, path)
			}
		}
	}
	if _, err := Open(st.Root()); err != nil {
		t.Fatal(err)
	}
	for _, path := range aged {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("aged temp %s not swept on Open", path)
		}
	}
	for _, path := range young {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("young temp %s swept inside the grace period", path)
		}
	}
	if !st.HasArtifact(key, "a.json") {
		t.Error("sweep removed a published artifact")
	}
}
