package tracefile

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"

	"barrierpoint/internal/trace"
)

// ErrFormat tags every DecodeStream failure caused by the input bytes —
// bad magic, truncation, framing that disagrees with the trailing index —
// as opposed to errors propagated from the caller's callback. Servers use
// it to answer a malformed upload with a client error instead of a 500.
var ErrFormat = errors.New("tracefile: malformed trace")

// errf builds an ErrFormat-wrapped decode error; errw additionally keeps
// the causing read error in the chain, so callers can still recognize the
// source reader's sentinel failures (e.g. *http.MaxBytesError from a
// capped upload body) through errors.As.
func errf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrFormat, fmt.Sprintf(format, args...))
}

func errw(err error, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %w", ErrFormat, fmt.Sprintf(format, args...), err)
}

// digestTag versions the region content digest framing. Bump it if the
// framing below ever changes, so stale cached profiles can never be
// mistaken for current ones.
const digestTag = "bprgn1"

// DigestIndexName names the artifact a store keeps beside a trace to list
// its regions' digests, so that an analysis learns its profile-cache keys
// without re-reading the trace (internal/service, profiles.go). It carries
// digestTag: a framing change orphans old indices with the profiles.
const DigestIndexName = "region-digests-" + digestTag + ".idx"

// maxStreamName bounds the name length a streaming decoder will accept
// before it has a footer to sanity-check against.
const maxStreamName = 1 << 16

// regionDigester accumulates the canonical region content digest: the tag,
// the gzip flag, the thread count, then every chunk as uvarint(len) +
// payload. RegionDigest (random access over a File) and DecodeStream
// (incremental, over a pipe) both produce digests through this one
// framing, which is what lets a profile computed mid-upload be found
// later by a reader that only has the stored file. The digest covers the
// encoded payload bytes — not the decoded accesses — so it is independent
// of where the region sits in its file and of the format version carrying
// it.
type regionDigester struct {
	h hash.Hash
	// scratch for the header and the chunk length prefixes; a local array
	// would escape through h.Write and cost an allocation per chunk.
	buf [len(digestTag) + 1 + binary.MaxVarintLen64]byte
}

func newRegionDigester(gz bool, threads int) *regionDigester {
	d := &regionDigester{h: sha256.New()}
	var flags byte
	if gz {
		flags = flagGzip
	}
	n := copy(d.buf[:], digestTag)
	d.buf[n] = flags
	n++
	n += binary.PutUvarint(d.buf[n:], uint64(threads))
	d.h.Write(d.buf[:n])
	return d
}

func (d *regionDigester) beginChunk(size uint64) {
	d.h.Write(d.buf[:binary.PutUvarint(d.buf[:], size)])
}

func (d *regionDigester) Write(p []byte) (int, error) { return d.h.Write(p) }

func (d *regionDigester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// StreamInfo describes a trace consumed by DecodeStream.
type StreamInfo struct {
	Name    string
	Threads int
	Regions int
	Gzip    bool
	// Streamed reports whether regions were decoded incrementally. It is
	// false for version-1 input, which has no inline framing: the bytes
	// were drained in full (so an upstream tee still completes) but the
	// callback never ran and the other fields are zero; the caller must
	// profile from the stored file instead.
	Streamed bool
}

// RegionChunks is one region's encoded payload, handed to the DecodeStream
// callback the moment the region's last byte arrives. The callee owns
// Chunks; the decoder never reuses them.
type RegionChunks struct {
	Index  int      // region index, 0-based, in trace order
	Digest string   // content digest; equals File.RegionDigest(Index) on the stored bytes
	Gzip   bool     // whether Chunks are gzip-compressed
	Chunks [][]byte // one encoded (possibly gzipped) chunk per thread
}

// Region returns an in-memory trace.Region replaying the chunks. Decoding
// goes through the same pooled chunk readers as File replay, so a region
// profiled during upload and the same region profiled later from the
// stored file observe bit-identical streams.
func (rc RegionChunks) Region() trace.Region {
	return &memRegion{chunks: rc.Chunks, gz: rc.Gzip}
}

type memRegion struct {
	chunks [][]byte
	gz     bool
}

func (r *memRegion) Thread(tid int) trace.Stream {
	if tid < 0 || tid >= len(r.chunks) {
		panic(fmt.Sprintf("tracefile: thread %d out of range [0,%d)", tid, len(r.chunks)))
	}
	b := r.chunks[tid]
	s, err := openChunkStream(bytes.NewReader(b), 0, int64(len(b)), r.gz)
	if err != nil {
		return &chunkStream{err: fmt.Errorf("tracefile: thread %d: %w", tid, err), done: true}
	}
	return s
}

var _ trace.Region = (*memRegion)(nil)

// DecodeStream consumes one trace from r — typically the request body of
// an upload, tee'd so the same bytes also land in the store — invoking fn
// once per region as soon as that region is complete. For version-2 input
// the whole stream is consumed and validated: chunk framing, the trailing
// footer's agreement with the streaming header, and the footer's chunk
// lengths against what was actually read, so a corrupt or truncated
// upload fails here rather than surfacing at first replay. An error from
// fn aborts the decode and is returned as-is.
//
// Version-1 input cannot be decoded incrementally (its chunk boundaries
// exist only in the trailing footer); it is drained to EOF and reported
// with Streamed=false so the caller can fall back to profiling from the
// stored file.
func DecodeStream(r io.Reader, fn func(RegionChunks) error) (StreamInfo, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, magicLen)
	if _, err := io.ReadFull(br, head); err != nil {
		return StreamInfo{}, errw(err, "reading header")
	}
	switch string(head) {
	case magicV1:
		if _, err := io.Copy(io.Discard, br); err != nil {
			return StreamInfo{}, fmt.Errorf("tracefile: draining v1 stream: %w", err)
		}
		return StreamInfo{}, nil
	case magicV2:
	default:
		return StreamInfo{}, errf("bad magic %q (not a trace file, or unsupported version)", head)
	}
	name, threads, regions, flags, err := parseMeta(br, maxStreamName)
	if err != nil {
		return StreamInfo{}, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	info := StreamInfo{
		Name:     string(name),
		Threads:  int(threads),
		Regions:  int(regions),
		Gzip:     flags&flagGzip != 0,
		Streamed: true,
	}
	pos := int64(magicLen) + int64(metaLen(name, threads, regions))
	// Never size an allocation from the header's thread/region counts: they
	// are untrusted (threads*regions can exceed any sane cap, or overflow
	// int outright) and nothing backs them yet. Both lengths and chunks grow
	// by append, so their growth is bounded by bytes actually read — a
	// crafted header with huge counts hits EOF on its first missing chunk.
	var lengths []uint64
	for ri := 0; ri < info.Regions; ri++ {
		d := newRegionDigester(info.Gzip, info.Threads)
		chunks := make([][]byte, 0, min(info.Threads, 64))
		for t := 0; t < info.Threads; t++ {
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return info, errw(err, "region %d thread %d: reading chunk length", ri, t)
			}
			d.beginChunk(n)
			// One buffer of the declared size, up to 1 MiB; only past that
			// does it grow as read, so a lying length prefix hits EOF before
			// it can force a giant allocation.
			buf := bytes.NewBuffer(make([]byte, 0, min(n, 1<<20)))
			if _, err := io.CopyN(io.MultiWriter(buf, d), br, int64(n)); err != nil {
				return info, errw(err, "region %d thread %d: reading chunk", ri, t)
			}
			chunks = append(chunks, buf.Bytes())
			lengths = append(lengths, n)
			pos += int64(uvarintLen(n)) + int64(n)
		}
		if err := fn(RegionChunks{Index: ri, Digest: d.sum(), Gzip: info.Gzip, Chunks: chunks}); err != nil {
			return info, err
		}
	}

	// What remains is the trailing index. Validate it against the streamed
	// prefix: the upload is rejected before commit if the two disagree.
	rest, err := io.ReadAll(br)
	if err != nil {
		return info, errw(err, "reading footer")
	}
	if len(rest) < tailLen {
		return info, errf("truncated trailer")
	}
	tail := rest[len(rest)-tailLen:]
	if string(tail[8:]) != trailerMagicV2 {
		return info, errf("bad trailer magic %q (truncated file?)", tail[8:])
	}
	if got := int64(binary.LittleEndian.Uint64(tail[:8])); got != pos {
		return info, errf("footer offset %d, but chunks ended at %d", got, pos)
	}
	fr := bytes.NewReader(rest[:len(rest)-tailLen])
	fname, fthreads, fregions, fflags, err := parseMeta(fr, len(rest))
	if err != nil {
		return info, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if !bytes.Equal(fname, name) || fthreads != threads || fregions != regions || fflags != flags {
		return info, errf("footer disagrees with streaming header (corrupt stream)")
	}
	for i := range lengths {
		n, err := binary.ReadUvarint(fr)
		if err != nil || n != lengths[i] {
			return info, errf("footer length for chunk %d disagrees with stream", i)
		}
	}
	if fr.Len() != 0 {
		return info, errf("%d trailing bytes after footer", fr.Len())
	}
	return info, nil
}
