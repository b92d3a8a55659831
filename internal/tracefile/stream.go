package tracefile

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"

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

// digestTag versions the region content digest framing (DecodeStream).
// Bump it if the framing ever changes, so stale cached profiles can never be
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

// StreamInfo describes a trace consumed by DecodeStream.
type StreamInfo struct {
	Name    string
	Threads int
	Regions int
	Gzip    bool
}

// RegionChunks is one region's encoded payload, handed to the DecodeStream
// callback the moment the region's last byte arrives. The callee owns
// Chunks; the decoder never reuses them.
type RegionChunks struct {
	Index  int      // region index, 0-based, in trace order
	Digest string   // content digest: equal for equal region content in any trace
	Gzip   bool     // whether Chunks are gzip-compressed
	Chunks [][]byte // one encoded (possibly gzipped) chunk per thread
}

// Region returns an in-memory trace.Region replaying the chunks. Decoding
// goes through the same chunk decoder as File replay, so a region profiled
// during upload and the same region profiled later from the stored file
// observe bit-identical streams; an uncompressed chunk decodes in place.
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
	s, err := openChunkStream(chunkBufPool.Get().(*chunkBuf), r.chunks[tid], r.gz)
	if err != nil {
		return &chunkStream{err: fmt.Errorf("tracefile: thread %d: %w", tid, err), done: true}
	}
	return s
}

var _ trace.Region = (*memRegion)(nil)

// DecodeStream consumes one trace from r — typically the request body of
// an upload, tee'd so the same bytes also land in the store — invoking fn
// once per region as soon as that region is complete. The whole stream is
// consumed and validated: chunk framing, the trailing footer's agreement
// with the streaming header, and the footer's chunk lengths against what
// was actually read, so a corrupt or truncated upload fails here rather
// than surfacing at first replay. An error from fn aborts the decode and is
// returned as-is.
func DecodeStream(r io.Reader, fn func(RegionChunks) error) (StreamInfo, error) {
	cr := &countingReader{r: r}
	br := bufio.NewReaderSize(cr, 1<<16)
	hdr, err := readHeader(br, maxStreamName)
	if err != nil {
		return StreamInfo{}, err
	}
	info := StreamInfo{
		Name:    hdr.name,
		Threads: int(hdr.threads),
		Regions: int(hdr.regions),
		Gzip:    hdr.flags&flagGzip != 0,
	}
	// Never size an allocation from the header's thread/region counts: they
	// are untrusted (threads*regions can exceed any sane cap, or overflow
	// int outright) and nothing backs them yet. Both lengths and chunks grow
	// by append, so their growth is bounded by bytes actually read — a
	// crafted header with huge counts hits EOF on its first missing chunk.
	//
	// A region's content digest hashes the tag, the flags byte and the thread
	// count, then every chunk as uvarint(len) + payload: the encoded bytes,
	// not the decoded accesses, so it is independent of where the region
	// sits in its file.
	var lengths []uint64
	digestHead := binary.AppendUvarint(append([]byte(digestTag), hdr.flags&flagGzip), hdr.threads)
	h := sha256.New()
	var varint [binary.MaxVarintLen64]byte
	for ri := 0; ri < info.Regions; ri++ {
		h.Reset()
		h.Write(digestHead)
		chunks := make([][]byte, 0, min(info.Threads, 64))
		for t := 0; t < info.Threads; t++ {
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return info, errw(err, "region %d thread %d: reading chunk length", ri, t)
			}
			h.Write(varint[:binary.PutUvarint(varint[:], n)])
			// Up to 1 MiB a chunk is read straight into a buffer of its
			// declared size; past that it grows as bytes arrive, so a lying
			// length prefix hits EOF before forcing a giant allocation.
			chunk := make([]byte, min(n, 1<<20))
			if _, err = io.ReadFull(br, chunk); err == nil && n > 1<<20 {
				var rest bytes.Buffer
				_, err = io.CopyN(&rest, br, int64(n)-1<<20)
				chunk = append(chunk, rest.Bytes()...)
			}
			if err != nil {
				return info, errw(err, "region %d thread %d: reading chunk", ri, t)
			}
			h.Write(chunk)
			chunks = append(chunks, chunk)
			lengths = append(lengths, n)
		}
		if err := fn(RegionChunks{Index: ri, Digest: hex.EncodeToString(h.Sum(nil)), Gzip: info.Gzip, Chunks: chunks}); err != nil {
			return info, err
		}
	}

	// What remains is the trailing index. Validate it against the streamed
	// prefix: the upload is rejected before commit if the two disagree. It
	// starts where the bytes read end, so checkIndex rejects any overlong
	// varint before it, as it would for NewReader.
	rest, err := io.ReadAll(br)
	if err != nil {
		return info, errw(err, "reading footer")
	}
	footer, err := checkIndex(rest, cr.n-int64(len(rest)), hdr)
	if err != nil {
		return info, err
	}
	if !slices.Equal(footer, lengths) {
		return info, errf("footer chunk lengths disagree with stream")
	}
	return info, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
