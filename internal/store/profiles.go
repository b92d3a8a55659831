package store

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// Per-region profile cache: <root>/profiles/<digest>.<codec> (see the
// package doc).

var codecRe = regexp.MustCompile(`^[a-z0-9]{1,16}$`)

func (s *Store) checkProfile(digest, codec string) error {
	if !keyRe.MatchString(digest) {
		return fmt.Errorf("store: malformed region digest %q", digest)
	}
	if !codecRe.MatchString(codec) {
		return fmt.Errorf("store: malformed profile codec %q", codec)
	}
	return nil
}

func (s *Store) profilePath(digest, codec string) string {
	return filepath.Join(s.root, "profiles", digest+"."+codec)
}

// PutProfiles stores a batch of region profiles, blobs keyed by digest, as
// one durable publish (see putBlobs). Profiles are content-addressed and
// published exclusively, so an existing entry is skipped and among concurrent
// ingests of overlapping traces exactly one creates each. It returns the
// digests this call created, which ingest failure cleanup removes alone.
func (s *Store) PutProfiles(codec string, blobs map[string][]byte) (created []string, err error) {
	named := make(map[string][]byte, len(blobs))
	for digest, b := range blobs {
		if err := s.checkProfile(digest, codec); err != nil {
			return nil, err
		}
		named[digest+"."+codec] = b
	}
	names, err := s.putBlobs(filepath.Join(s.root, "profiles"), named, true)
	for _, name := range names {
		created = append(created, strings.TrimSuffix(name, "."+codec))
	}
	return created, err
}

// PutProfile is PutProfiles for one profile, reporting whether it existed.
func (s *Store) PutProfile(digest, codec string, data []byte) (existed bool, err error) {
	created, err := s.PutProfiles(codec, map[string][]byte{digest: data})
	return len(created) == 0, err
}

// GetProfile returns the profile stored under (digest, codec), or an error
// wrapping ErrNotFound. The store does not interpret the blob.
func (s *Store) GetProfile(digest, codec string) ([]byte, error) {
	if err := s.checkProfile(digest, codec); err != nil {
		return nil, err
	}
	return readBlob(s.profilePath(digest, codec), "profile ", digest, ".", codec)
}

// GetProfiles returns the profiles stored under digests, nil for a miss,
// reading each file once however many of them link to it. A name linked to a
// pack that is malformed or lacks it is a miss and is removed: an exclusive
// publish would never replace it.
func (s *Store) GetProfiles(codec string, digests []string) [][]byte {
	var files []os.FileInfo
	var packs []map[string][]byte
	out := make([][]byte, len(digests))
	for i, digest := range digests {
		path := s.profilePath(digest, codec)
		fi, err := os.Stat(path)
		if err != nil || s.checkProfile(digest, codec) != nil {
			continue
		}
		j := slices.IndexFunc(files, func(f os.FileInfo) bool { return os.SameFile(f, fi) })
		if j < 0 {
			b, err := os.ReadFile(path)
			if err != nil || !isPack(b) {
				out[i] = b
				continue
			}
			j, files, packs = len(files), append(files, fi), append(packs, unpack(b))
		}
		if out[i] = packs[j][filepath.Base(path)]; out[i] == nil {
			os.Remove(path)
		}
	}
	return out
}

// HasProfile reports whether a profile is stored under (digest, codec).
func (s *Store) HasProfile(digest, codec string) bool {
	return s.checkProfile(digest, codec) == nil && hasBlob(s.profilePath(digest, codec))
}

// RemoveProfile deletes one cached profile. Removing a profile that does
// not exist is not an error.
func (s *Store) RemoveProfile(digest, codec string) error {
	if err := s.checkProfile(digest, codec); err != nil {
		return err
	}
	return removeBlob(s.profilePath(digest, codec))
}
