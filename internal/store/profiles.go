package store

import (
	"fmt"
	"path/filepath"
	"regexp"
)

// Per-region profile cache.
//
// Profiles live at <root>/profiles/<digest>.<codec>: digest is the
// region's content digest (tracefile.File.RegionDigest — a hash of the
// region's encoded chunk payloads, independent of which trace file carries
// them) and codec is the blob's encoding version (signature.CodecVersion).
// The profile itself (per-thread BBV + LDV + instruction counts) is
// signature-variant-independent, so this one entry serves every signature
// kind, LDV weighting, thread aggregation, and every clustering K or
// scale: any analysis of any trace containing the region reuses it and
// pays only clustering.

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

// PutProfile stores a region profile under (digest, codec). Profiles are
// content-addressed, so if the entry already exists the write is skipped
// and existed is true — concurrent ingests of overlapping traces simply
// race to be first, and the entry is published exclusively (hard link, not
// rename) so exactly one of the racers observes existed=false. Callers
// therefore get an accurate "this call created the entry" signal, which
// ingest failure cleanup relies on to remove only its own creations. The
// write is durable (fsync around the publish), like every other store
// write.
func (s *Store) PutProfile(digest, codec string, data []byte) (existed bool, err error) {
	if err := s.checkProfile(digest, codec); err != nil {
		return false, err
	}
	if hasBlob(s.profilePath(digest, codec)) {
		return true, nil
	}
	return writeDurable(filepath.Join(s.root, "profiles"), digest+"."+codec, data, true)
}

// GetProfile returns the profile stored under (digest, codec), or an error
// wrapping ErrNotFound. Callers treat any subsequent decode failure as a
// miss and recompute; the store does not interpret the blob.
func (s *Store) GetProfile(digest, codec string) ([]byte, error) {
	if err := s.checkProfile(digest, codec); err != nil {
		return nil, err
	}
	return readBlob(s.profilePath(digest, codec), "profile ", digest, ".", codec)
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
