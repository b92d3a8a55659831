package tracefile

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"barrierpoint/internal/trace"
)

// File format constants; see doc.go for the layout. The streaming header
// after the magic and the inline uvarint length prefix before every chunk
// let consumers decode region by region as bytes arrive.
const (
	magicV2        = "BPTRACE2"
	trailerMagicV2 = "BPTIDX2\n"
	magicLen       = 8
	tailLen        = 16 // uint64 footer offset + trailer magic

	flagGzip = 1 << 0

	// maxAccs bounds the per-block access count a reader will accept,
	// protecting against pathological allocations from corrupt headers.
	maxAccs = 1 << 20
)

// encodeChunk appends the encoding of one thread stream to buf and returns
// the extended slice. Delta predictors reset per chunk so that every chunk
// decodes independently. Blocks exceeding maxAccs are rejected here, at
// record time: the reader enforces the same bound, and a file that records
// but silently truncates on replay would break the bit-for-bit guarantee.
func encodeChunk(buf []byte, s trace.Stream) ([]byte, error) {
	var (
		prevBlock int64
		prevAddr  uint64
		be        trace.BlockExec
	)
	for s.Next(&be) {
		if len(be.Accs) > maxAccs {
			return nil, fmt.Errorf("block %d has %d accesses (max %d)", be.Block, len(be.Accs), maxAccs)
		}
		hdr := uint64(len(be.Accs)) << 2
		if be.Branch {
			hdr |= 2
		}
		if be.Taken {
			hdr |= 1
		}
		buf = binary.AppendUvarint(buf, hdr)
		buf = binary.AppendVarint(buf, int64(be.Block)-prevBlock)
		prevBlock = int64(be.Block)
		buf = binary.AppendUvarint(buf, uint64(be.Instrs))
		if len(be.Accs) > 0 {
			var mask byte
			for i, a := range be.Accs {
				if a.Write {
					mask |= 1 << (i % 8)
				}
				if i%8 == 7 {
					buf = append(buf, mask)
					mask = 0
				}
			}
			if len(be.Accs)%8 != 0 {
				buf = append(buf, mask)
			}
			for _, a := range be.Accs {
				buf = binary.AppendVarint(buf, int64(a.Addr-prevAddr))
				prevAddr = a.Addr
			}
		}
	}
	return buf, nil
}

// errOverflow is encoding/binary's error for a varint over 64 bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// inflateWindow is the inflated bytes a gzip chunk's stream holds at once,
// unless a record needs more (see need). Tests lower it.
var inflateWindow = 64 << 10

// chunkStream decodes one chunk back into a trace.Stream from bytes in
// memory (see openChunkStream): an uncompressed payload whole, a gzip one a
// window at a time, so a stream never holds a chunk's inflated size.
type chunkStream struct {
	buf []byte // the bytes at hand; records decode from buf[pos:]
	pos int
	src io.Reader // the inflater buf refills from; nil once drained, or raw
	// tail is the error a failed inflate ended on, reported where the bytes
	// run out: the records before it decode, as from a lazily read stream.
	tail      error
	cb        *chunkBuf // pooled storage, returned when the stream stops
	prevBlock int64
	prevAddr  uint64
	accs      []trace.Access // the current record's accesses
	err       error
	done      bool
}

// Next implements trace.Stream. The Accs backing array is reused between
// calls, as the Stream contract allows. Decoding errors terminate the
// stream and are reported by Err.
func (s *chunkStream) Next(be *trace.BlockExec) bool {
	hdr, instrs, ok := s.record()
	if !ok {
		return false
	}
	be.Block, be.Instrs = int(s.prevBlock), int(instrs)
	be.Branch, be.Taken = hdr&2 != 0, hdr&1 != 0
	be.Accs = nil
	if len(s.accs) > 0 {
		be.Accs = s.accs
	}
	return true
}

// appendAccesses drains the stream into dst as appendEntries does, through
// record as Next does, so the two accept and reject the same bytes.
func (s *chunkStream) appendAccesses(dst []uint64) ([]uint64, error) {
	for {
		if _, _, ok := s.record(); !ok {
			return dst, s.err
		}
		dst = appendEntries(dst, s.accs)
	}
}

// appendEntries appends LineAddr(addr)<<1 | write for every access to dst.
func appendEntries(dst []uint64, accs []trace.Access) []uint64 {
	for _, a := range accs {
		e := trace.LineAddr(a.Addr) << 1
		if a.Write {
			e |= 1
		}
		dst = append(dst, e)
	}
	return dst
}

// record decodes the next block record: the header and instruction count,
// prevBlock advanced and the accesses in s.accs. At the payload's end or on
// an error it stops the stream and returns false; reads past a stop return
// zeros, checked where they count.
func (s *chunkStream) record() (hdr, instrs uint64, ok bool) {
	s.need(3 * binary.MaxVarintLen64)
	if !s.done && s.pos == len(s.buf) { // between records: the clean end
		s.stop(s.tail)
	}
	if s.done {
		return 0, 0, false
	}
	hdr = s.uvarint()
	naccs := hdr >> 2
	if naccs > maxAccs {
		s.stop(fmt.Errorf("block declares %d accesses (max %d)", naccs, maxAccs))
	}
	s.prevBlock += zigzag(s.uvarint())
	instrs = s.uvarint()
	maskLen := int(naccs+7) / 8
	s.need(maskLen + int(naccs)*binary.MaxVarintLen64)
	if !s.done && len(s.buf)-s.pos < maskLen {
		s.short(s.pos < len(s.buf))
	}
	if s.done {
		return 0, 0, false
	}
	mask := s.buf[s.pos : s.pos+maskLen]
	s.pos += maskLen
	if cap(s.accs) < int(naccs) {
		s.accs = make([]trace.Access, naccs)
	}
	accs, addr := s.accs[:naccs], s.prevAddr
	for i := range accs {
		addr += uint64(zigzag(s.uvarint()))
		if s.done { // accs is back in the pool
			return 0, 0, false
		}
		accs[i] = trace.Access{Addr: addr, Write: mask[i/8]&(1<<(i%8)) != 0}
	}
	s.accs, s.prevAddr = accs, addr
	return hdr, instrs, true
}

// uvarint decodes the next uvarint: one- and two-byte values inline (most
// address deltas and headers), then binary.Uvarint where it can (ReadUvarint
// agrees there), uvarintLong elsewhere.
func (s *chunkStream) uvarint() uint64 {
	b := s.buf[s.pos:]
	if len(b) > 0 && b[0] < 0x80 {
		s.pos++
		return uint64(b[0])
	}
	if len(b) > 1 && b[1] < 0x80 {
		s.pos += 2
		return uint64(b[0]&0x7f) | uint64(b[1])<<7
	}
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return s.uvarintLong()
	}
	s.pos += n
	return x
}

// need makes n bytes available at buf[pos:] unless the payload ends first.
// record asks for the most its next fields can take, so none straddles a
// refill, and a window outgrows inflateWindow only by 10 bytes per access a
// record declares. refill moves the bytes at hand to the window's front and
// inflates until the window is full or the inflater drained.
func (s *chunkStream) need(n int) {
	if s.src != nil && len(s.buf)-s.pos < n {
		s.refill(n)
	}
}

func (s *chunkStream) refill(n int) {
	w := s.cb.win[:cap(s.cb.win)]
	if len(w) < max(n, inflateWindow) {
		w = make([]byte, max(n, inflateWindow))
	}
	k := copy(w, s.buf[s.pos:])
	for k < len(w) && s.src != nil {
		m, err := s.src.Read(w[k:])
		k += m
		if err != nil {
			if err != io.EOF {
				s.tail = err
			}
			s.src = nil
		}
	}
	s.cb.win, s.buf, s.pos = w, w[:k], 0
}

// zigzag maps a uvarint back to the signed value a varint encodes.
func zigzag(ux uint64) int64 {
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// uvarintLong is uvarint's general case. It accepts and rejects exactly what
// encoding/binary's ReadUvarint does, and fails with the same errors.
func (s *chunkStream) uvarintLong() uint64 {
	var x uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if s.pos == len(s.buf) {
			s.short(i > 0)
			return 0
		}
		b := s.buf[s.pos]
		s.pos++
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
	}
	s.stop(errOverflow)
	return 0
}

// short stops the stream where the payload ends inside a record, with the
// errors of ReadUvarint and io.ReadFull: io.ErrUnexpectedEOF inside a field,
// io.EOF before one — or the tail error, if the payload ended on one.
func (s *chunkStream) short(inField bool) {
	err := io.EOF
	if inField {
		err = io.ErrUnexpectedEOF
	}
	s.stop(cmp.Or(s.tail, err))
}

// stop ends the stream on err (nil at the clean end) and returns its pooled
// storage; the stream's Err stays valid.
func (s *chunkStream) stop(err error) {
	if err != nil && s.err == nil {
		s.err = fmt.Errorf("tracefile: corrupt chunk: %w", err)
	}
	s.done, s.buf, s.pos, s.src = true, nil, 0, nil
	if s.cb != nil {
		s.cb.src.Reset(nil) // hold no reference to an in-memory region's bytes
		s.cb.accs = s.accs
		chunkBufPool.Put(s.cb)
		s.cb = nil
	}
	s.accs = nil
}

// Err reports the first decoding error encountered, if any. A truncated or
// corrupt chunk ends the stream early; callers that need integrity
// guarantees should check Err after draining (File.Verify does).
func (s *chunkStream) Err() error { return s.err }

var _ trace.Stream = (*chunkStream)(nil)
