package tracefile

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"barrierpoint/internal/trace"
)

// File is a recorded trace opened for replay. It implements trace.Program;
// regions stream straight off the underlying reader, so holding a File
// costs O(index), not O(trace). Region and Thread may be used concurrently
// from multiple goroutines (reads go through io.ReaderAt).
type File struct {
	ra      io.ReaderAt
	closer  io.Closer
	name    string
	threads int
	regions int
	gzip    bool
	// off and end bound chunk i's payload: [off[i], end[i]). Each payload
	// is preceded by its inline uvarint length prefix, so off[i] > end[i-1].
	off, end []int64
}

// Open opens the trace file at path for replay.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracefile: %w", err)
	}
	tf, err := NewReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	tf.closer = f
	return tf, nil
}

// NewReader opens a trace stored in an arbitrary io.ReaderAt of the given
// total size (a memory buffer, an mmap, a remote object). The caller keeps
// ownership of ra; Close on the returned File is a no-op.
func NewReader(ra io.ReaderAt, size int64) (*File, error) {
	if size < magicLen+tailLen {
		return nil, errf("file too short (%d bytes)", size)
	}
	hdr, err := readHeader(bufio.NewReader(io.NewSectionReader(ra, 0, size)), int(size))
	if err != nil {
		return nil, err
	}
	tail := make([]byte, tailLen)
	if _, err := ra.ReadAt(tail, size-tailLen); err != nil {
		return nil, fmt.Errorf("tracefile: reading trailer: %w", err)
	}
	// Read the index from where the trailer says the footer starts; an offset
	// out of range reads the trailer alone, and checkIndex rejects it.
	footerOff := size - tailLen
	if off := binary.LittleEndian.Uint64(tail[:8]); off >= magicLen && off <= uint64(footerOff) {
		footerOff = int64(off)
	}
	idx := make([]byte, size-footerOff)
	if _, err := ra.ReadAt(idx, footerOff); err != nil {
		return nil, fmt.Errorf("tracefile: reading footer: %w", err)
	}
	lengths, err := checkIndex(idx, footerOff, hdr)
	if err != nil {
		return nil, err
	}
	f := &File{
		ra:      ra,
		name:    hdr.name,
		threads: int(hdr.threads),
		regions: int(hdr.regions),
		gzip:    hdr.flags&flagGzip != 0,
		off:     make([]int64, len(lengths)),
		end:     make([]int64, len(lengths)),
	}
	pos := int64(magicLen + metaLen(hdr))
	for i, n := range lengths {
		f.off[i] = pos + int64(uvarintLen(n))
		f.end[i] = f.off[i] + int64(n)
		pos = f.end[i]
	}
	return f, nil
}

// meta is the metadata block a trace carries twice, in the streaming header
// and in the footer; the two copies of a valid trace are equal.
type meta struct {
	name             string
	threads, regions uint64
	flags            byte
}

// readHeader checks the leading magic and parses the streaming header after
// it. limit bounds the accepted name length.
func readHeader(r *bufio.Reader, limit int) (meta, error) {
	head := make([]byte, magicLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return meta{}, errw(err, "reading header")
	}
	if string(head) != magicV2 {
		return meta{}, errf("bad magic %q (not a trace file, or unsupported version)", head)
	}
	return parseMeta(r, limit)
}

// parseMeta decodes one metadata block. limit bounds the accepted name
// length.
func parseMeta(r interface {
	io.Reader
	io.ByteReader
}, limit int) (meta, error) {
	nameLen, err := binary.ReadUvarint(r)
	if err != nil || nameLen > uint64(limit) {
		return meta{}, errf("corrupt metadata: bad name length")
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return meta{}, errw(err, "corrupt metadata")
	}
	m := meta{name: string(name)}
	if m.threads, err = binary.ReadUvarint(r); err != nil || m.threads == 0 || m.threads > 1<<20 {
		return meta{}, errf("corrupt metadata: bad thread count")
	}
	if m.regions, err = binary.ReadUvarint(r); err != nil || m.regions > 1<<40 {
		return meta{}, errf("corrupt metadata: bad region count")
	}
	if m.flags, err = r.ReadByte(); err != nil {
		return meta{}, errw(err, "corrupt metadata")
	}
	return m, nil
}

// checkIndex validates a trace's trailing index against its header and
// returns the footer's chunk lengths; NewReader and DecodeStream both call
// it, so they accept the same indices. idx holds the footer and the
// trailer, and chunksEnd is its file offset: where the last chunk ends. The
// trailer must carry its magic and point at chunksEnd, and the footer must
// repeat the header's metadata and list R·T lengths that, each behind its
// inline prefix, fill the file from the header to chunksEnd, then end.
func checkIndex(idx []byte, chunksEnd int64, hdr meta) ([]uint64, error) {
	if len(idx) < tailLen {
		return nil, errf("truncated trailer")
	}
	tail := idx[len(idx)-tailLen:]
	if string(tail[8:]) != trailerMagicV2 {
		return nil, errf("bad trailer magic %q (truncated file?)", tail[8:])
	}
	if off := binary.LittleEndian.Uint64(tail[:8]); off != uint64(chunksEnd) {
		return nil, errf("footer offset %d, but chunks end at %d", off, chunksEnd)
	}
	fr := bytes.NewReader(idx[:len(idx)-tailLen])
	fm, err := parseMeta(fr, fr.Len())
	if err != nil {
		return nil, err
	}
	if fm != hdr {
		return nil, errf("footer disagrees with streaming header (corrupt file)")
	}
	nchunks := hdr.regions * hdr.threads
	if nchunks > uint64(fr.Len()) { // each length takes >= 1 footer byte
		return nil, errf("corrupt footer: %d chunks exceed footer size", nchunks)
	}
	lengths := make([]uint64, nchunks)
	pos := int64(magicLen + metaLen(hdr))
	for i := range lengths {
		n, err := binary.ReadUvarint(fr)
		if err != nil {
			return nil, errw(err, "corrupt footer: chunk %d length", i)
		}
		if pos > chunksEnd || n > uint64(chunksEnd-pos) {
			return nil, errf("corrupt footer: chunk %d overruns footer", i)
		}
		lengths[i] = n
		pos += int64(uvarintLen(n)) + int64(n)
	}
	if pos != chunksEnd {
		return nil, errf("corrupt footer: chunks end at %d, footer starts at %d", pos, chunksEnd)
	}
	if fr.Len() != 0 {
		return nil, errf("%d trailing bytes after footer", fr.Len())
	}
	return lengths, nil
}

// metaLen returns the encoded size of a metadata block.
func metaLen(m meta) int {
	return uvarintLen(uint64(len(m.name))) + len(m.name) + uvarintLen(m.threads) + uvarintLen(m.regions) + 1
}

// uvarintLen returns the encoded length of n as a uvarint.
func uvarintLen(n uint64) int {
	l := 1
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// Close releases the underlying file handle (if Open created one). Streams
// obtained from the File must not be used after Close.
func (f *File) Close() error {
	if f.closer == nil {
		return nil
	}
	err := f.closer.Close()
	f.closer = nil
	return err
}

// Name implements trace.Program.
func (f *File) Name() string { return f.name }

// Threads implements trace.Program.
func (f *File) Threads() int { return f.threads }

// Regions implements trace.Program.
func (f *File) Regions() int { return f.regions }

// Gzipped reports whether chunks are gzip-compressed.
func (f *File) Gzipped() bool { return f.gzip }

// Region implements trace.Program. The returned Region reads its chunks
// lazily; materializing it costs no trace decoding.
func (f *File) Region(i int) trace.Region {
	if i < 0 || i >= f.regions {
		panic(fmt.Sprintf("tracefile: region %d out of range [0,%d)", i, f.regions))
	}
	return &fileRegion{f: f, idx: i}
}

// chunkBuf is a chunkStream's pooled storage: payload, inflate window, gzip
// inflater (~40 KiB fresh) and access buffer. A stream returns it when it
// stops; an abandoned stream leaves it to the GC.
type chunkBuf struct {
	raw  []byte
	win  []byte
	src  bytes.Reader // over the compressed payload while inflating
	zr   gzip.Reader
	accs []trace.Access
}

var chunkBufPool = sync.Pool{New: func() any { return new(chunkBuf) }}

// openChunkStream returns a decode stream over one chunk's payload, in place
// or inflated through cb's window as the stream reads: the single path
// behind File replay and the regions DecodeStream hands to ingest.
func openChunkStream(cb *chunkBuf, payload []byte, gz bool) (*chunkStream, error) {
	s := &chunkStream{buf: payload, cb: cb, accs: cb.accs}
	if gz {
		cb.src.Reset(payload)
		if err := cb.zr.Reset(&cb.src); err != nil {
			cb.src.Reset(nil)
			chunkBufPool.Put(cb)
			return nil, err
		}
		s.buf, s.src = nil, &cb.zr
	}
	return s, nil
}

// Verify fully decodes every chunk, checking the encoding end to end.
// Replay itself never requires this; it exists for integrity checks
// (bptool info -verify) and tests.
func (f *File) Verify() error {
	var buf []uint64
	var err error
	for c := 0; c < len(f.off) && err == nil; c++ {
		buf, err = f.AppendAccesses(buf[:0], c/f.threads, c%f.threads)
	}
	return err
}

// AppendAccesses appends LineAddr(addr)<<1 | write for every access of thread
// tid in region to dst and returns the chunk's decode error: the stream of
// Region(region).Thread(tid) without block records, for the MRU prefix pass.
func (f *File) AppendAccesses(dst []uint64, region, tid int) ([]uint64, error) {
	s, err := f.stream(region, tid)
	if err != nil {
		return dst, err
	}
	if dst, err = s.appendAccesses(dst); err != nil {
		return dst, fmt.Errorf("tracefile: region %d thread %d: %w", region, tid, err)
	}
	return dst, nil
}

// stream opens the chunk of one region and thread, reading its payload with
// one ReadAt.
func (f *File) stream(region, tid int) (*chunkStream, error) {
	i := region*f.threads + tid
	n := int(f.end[i] - f.off[i])
	cb := chunkBufPool.Get().(*chunkBuf)
	cb.raw = slices.Grow(cb.raw[:0], n)[:n]
	var s *chunkStream
	got, err := f.ra.ReadAt(cb.raw, f.off[i])
	if got == n { // a short read's err is never nil
		s, err = openChunkStream(cb, cb.raw, f.gzip)
	} else {
		chunkBufPool.Put(cb)
	}
	if err != nil {
		return nil, fmt.Errorf("tracefile: region %d thread %d: %w", region, tid, err)
	}
	return s, nil
}

// fileRegion is one on-disk inter-barrier region.
type fileRegion struct {
	f   *File
	idx int
}

// Thread implements trace.Region. Each call opens a fresh stream over the
// thread's chunk; a failure to even open the chunk (corrupt gzip header)
// yields an empty stream whose Err reports the cause.
func (r *fileRegion) Thread(tid int) trace.Stream {
	if tid < 0 || tid >= r.f.threads {
		panic(fmt.Sprintf("tracefile: thread %d out of range [0,%d)", tid, r.f.threads))
	}
	s, err := r.f.stream(r.idx, tid)
	if err != nil {
		return &chunkStream{err: err, done: true}
	}
	return s
}

var (
	_ trace.Program = (*File)(nil)
	_ trace.Region  = (*fileRegion)(nil)
)
