package tracefile

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
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
	// off and end bound chunk i's payload: [off[i], end[i]). In version 1
	// chunks abut; in version 2 each payload is preceded by its inline
	// uvarint length prefix, so off[i] > end[i-1].
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
// total size (a memory buffer, an mmap, a remote object). Both format
// versions are accepted. The caller keeps ownership of ra; Close on the
// returned File is a no-op.
func NewReader(ra io.ReaderAt, size int64) (*File, error) {
	if size < magicLen+tailLen {
		return nil, fmt.Errorf("tracefile: file too short (%d bytes)", size)
	}
	head := make([]byte, magicLen)
	if _, err := ra.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("tracefile: reading header: %w", err)
	}
	var version int
	switch string(head) {
	case magicV1:
		version = 1
	case magicV2:
		version = 2
	default:
		return nil, fmt.Errorf("tracefile: bad magic %q (not a trace file, or unsupported version)", head)
	}
	tail := make([]byte, tailLen)
	if _, err := ra.ReadAt(tail, size-tailLen); err != nil {
		return nil, fmt.Errorf("tracefile: reading trailer: %w", err)
	}
	wantTrailer := trailerMagicV1
	if version == 2 {
		wantTrailer = trailerMagicV2
	}
	if string(tail[8:]) != wantTrailer {
		return nil, fmt.Errorf("tracefile: bad trailer magic %q (truncated file?)", tail[8:])
	}
	footerOff := int64(binary.LittleEndian.Uint64(tail[:8]))
	if footerOff < magicLen || footerOff > size-tailLen {
		return nil, fmt.Errorf("tracefile: footer offset %d out of range [%d, %d]", footerOff, magicLen, size-tailLen)
	}

	footer := make([]byte, size-tailLen-footerOff)
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("tracefile: reading footer: %w", err)
	}
	fr := bytes.NewReader(footer)
	name, threads, regions, flags, err := parseMeta(fr, len(footer))
	if err != nil {
		return nil, err
	}

	nchunks := regions * threads
	if nchunks > uint64(len(footer)) { // each length takes >= 1 footer byte
		return nil, fmt.Errorf("tracefile: corrupt footer: %d chunks exceed footer size", nchunks)
	}
	off := make([]int64, nchunks)
	end := make([]int64, nchunks)
	pos := int64(magicLen)
	if version == 2 {
		pos += int64(metaLen(name, threads, regions))
	}
	for i := uint64(0); i < nchunks; i++ {
		n, err := binary.ReadUvarint(fr)
		if err != nil {
			return nil, fmt.Errorf("tracefile: corrupt footer: chunk %d length: %w", i, err)
		}
		if version == 2 {
			pos += int64(uvarintLen(n))
		}
		off[i] = pos
		end[i] = pos + int64(n)
		if end[i] < off[i] || end[i] > footerOff {
			return nil, fmt.Errorf("tracefile: corrupt footer: chunk %d overruns footer", i)
		}
		pos = end[i]
	}
	if pos != footerOff {
		return nil, fmt.Errorf("tracefile: corrupt footer: chunks end at %d, footer starts at %d", pos, footerOff)
	}
	f := &File{
		ra:      ra,
		name:    string(name),
		threads: int(threads),
		regions: int(regions),
		gzip:    flags&flagGzip != 0,
		off:     off,
		end:     end,
	}
	if version == 2 {
		// The streaming header duplicates the footer metadata so uploads
		// can profile before the index arrives; the two copies must agree.
		if err := f.checkHeader(name, threads, regions, flags); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// parseMeta decodes the shared metadata block (name, threads, regions,
// flags) used verbatim by the v2 streaming header and both footers. limit
// bounds the accepted name length.
func parseMeta(fr io.ByteReader, limit int) (name []byte, threads, regions uint64, flags byte, err error) {
	nameLen, err := binary.ReadUvarint(fr)
	if err != nil || nameLen > uint64(limit) {
		return nil, 0, 0, 0, fmt.Errorf("tracefile: corrupt metadata: bad name length")
	}
	name = make([]byte, nameLen)
	if r, ok := fr.(io.Reader); ok {
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, 0, 0, 0, fmt.Errorf("tracefile: corrupt metadata: %w", err)
		}
	} else {
		for i := range name {
			b, err := fr.ReadByte()
			if err != nil {
				return nil, 0, 0, 0, fmt.Errorf("tracefile: corrupt metadata: %w", err)
			}
			name[i] = b
		}
	}
	threads, err = binary.ReadUvarint(fr)
	if err != nil || threads == 0 || threads > 1<<20 {
		return nil, 0, 0, 0, fmt.Errorf("tracefile: corrupt metadata: bad thread count")
	}
	regions, err = binary.ReadUvarint(fr)
	if err != nil || regions > 1<<40 {
		return nil, 0, 0, 0, fmt.Errorf("tracefile: corrupt metadata: bad region count")
	}
	flags, err = fr.ReadByte()
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("tracefile: corrupt metadata: %w", err)
	}
	return name, threads, regions, flags, nil
}

// metaLen returns the encoded size of the metadata block.
func metaLen(name []byte, threads, regions uint64) int {
	return uvarintLen(uint64(len(name))) + len(name) + uvarintLen(threads) + uvarintLen(regions) + 1
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

// checkHeader re-reads the v2 streaming header and verifies it matches the
// footer metadata, so a reader and a streaming consumer of the same bytes
// can never disagree about the trace's shape.
func (f *File) checkHeader(name []byte, threads, regions uint64, flags byte) error {
	hdr := make([]byte, metaLen(name, threads, regions))
	if _, err := f.ra.ReadAt(hdr, magicLen); err != nil {
		return fmt.Errorf("tracefile: reading streaming header: %w", err)
	}
	hr := bytes.NewReader(hdr)
	hname, hthreads, hregions, hflags, err := parseMeta(hr, len(hdr))
	if err != nil {
		return err
	}
	if !bytes.Equal(hname, name) || hthreads != threads || hregions != regions || hflags != flags {
		return fmt.Errorf("tracefile: streaming header disagrees with footer (corrupt file)")
	}
	return nil
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

// RegionDigest returns the content digest of region i: the SHA-256 of the
// region's encoded chunk payloads under the canonical framing (see
// digestRegion). Two regions digest equal exactly when they replay
// identically, independent of which trace file — or format version —
// carries them, so per-region derived artifacts (profiles) content-address
// across traces.
func (f *File) RegionDigest(i int) (string, error) {
	if i < 0 || i >= f.regions {
		return "", fmt.Errorf("tracefile: region %d out of range [0,%d)", i, f.regions)
	}
	d := newRegionDigester(f.gzip, f.threads)
	// One small buffer per call: io.Copy would allocate 32 KB per chunk,
	// 130 MB of garbage over a 5.7 MB trace of many small regions.
	buf := make([]byte, 4<<10)
	for t := 0; t < f.threads; t++ {
		c := i*f.threads + t
		d.beginChunk(uint64(f.end[c] - f.off[c]))
		for off := f.off[c]; off < f.end[c]; {
			b := buf[:min(int64(len(buf)), f.end[c]-off)]
			if n, err := f.ra.ReadAt(b, off); n < len(b) {
				return "", fmt.Errorf("tracefile: digesting region %d thread %d: %w", i, t, err)
			}
			d.h.Write(b)
			off += int64(len(b))
		}
	}
	return d.sum(), nil
}

// Region implements trace.Program. The returned Region reads its chunks
// lazily; materializing it costs no trace decoding.
func (f *File) Region(i int) trace.Region {
	if i < 0 || i >= f.regions {
		panic(fmt.Sprintf("tracefile: region %d out of range [0,%d)", i, f.regions))
	}
	return &fileRegion{f: f, idx: i}
}

// sectReader is a resettable equivalent of io.SectionReader, so a pooled
// chunkReader carries no per-stream allocations.
type sectReader struct {
	ra       io.ReaderAt
	off, end int64
}

func (r *sectReader) Read(p []byte) (int, error) {
	if r.off >= r.end {
		return 0, io.EOF
	}
	if max := r.end - r.off; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := r.ra.ReadAt(p, r.off)
	r.off += int64(n)
	return n, err
}

// chunkReader bundles the readers a replay stream needs — the bounded file
// view, its bufio buffer, and (for compressed traces) the gzip inflater
// plus its own bufio buffer. A fresh gzip.Reader costs ~40 KiB of window
// and Huffman state per chunk, and the seed allocated one per thread per
// region per replay; the pool reuses them across every stream opened by
// any File in the process. chunkStream returns its reader to the pool when
// the stream is exhausted or fails (abandoned streams are simply collected
// by the GC and the pool refills on demand).
type chunkReader struct {
	sect sectReader
	br   *bufio.Reader // over sect
	zr   gzip.Reader   // over br (gzip traces only)
	zbr  *bufio.Reader // over zr (gzip traces only)
}

var chunkReaderPool = sync.Pool{New: func() any {
	return &chunkReader{
		br:  bufio.NewReader(nil),
		zbr: bufio.NewReader(nil),
	}
}}

// openChunkStream builds a pooled-reader decode stream over the payload
// bytes [off, end) of ra, inflating when gz is set. This is the single
// path behind File replay and the in-memory regions DecodeStream hands to
// the ingest profiler, so the two cannot decode differently.
func openChunkStream(ra io.ReaderAt, off, end int64, gz bool) (*chunkStream, error) {
	cr := chunkReaderPool.Get().(*chunkReader)
	cr.sect = sectReader{ra: ra, off: off, end: end}
	cr.br.Reset(&cr.sect)
	src := cr.br
	if gz {
		if err := cr.zr.Reset(cr.br); err != nil {
			chunkReaderPool.Put(cr)
			return nil, err
		}
		cr.zbr.Reset(&cr.zr)
		src = cr.zbr
	}
	s := newChunkStream(src)
	s.cr = cr
	return s, nil
}

// Verify fully decodes every chunk, checking the encoding end to end.
// Replay itself never requires this; it exists for integrity checks
// (bptool info -verify) and tests.
func (f *File) Verify() error {
	var be trace.BlockExec
	for r := 0; r < f.regions; r++ {
		for t := 0; t < f.threads; t++ {
			s, err := f.stream(r, t)
			if err != nil {
				return err
			}
			for s.Next(&be) {
			}
			if err := s.Err(); err != nil {
				return fmt.Errorf("tracefile: region %d thread %d: %w", r, t, err)
			}
		}
	}
	return nil
}

func (f *File) stream(region, tid int) (*chunkStream, error) {
	i := region*f.threads + tid
	s, err := openChunkStream(f.ra, f.off[i], f.end[i], f.gzip)
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
