package tracefile

import (
	"bufio"
	"encoding/binary"
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

// chunkStream decodes one chunk back into a trace.Stream. It reads lazily
// from r (a bounded view of the file, already decompressed if needed), so
// its memory footprint is one bufio buffer regardless of chunk size.
type chunkStream struct {
	br        *bufio.Reader
	cr        *chunkReader // pooled readers, returned when the stream ends
	prevBlock int64
	prevAddr  uint64
	accs      []trace.Access
	writeMask []byte
	err       error
	done      bool
}

func newChunkStream(r io.Reader) *chunkStream {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &chunkStream{br: br}
}

// Next implements trace.Stream. The Accs backing array is reused between
// calls, as the Stream contract allows. Decoding errors terminate the
// stream and are reported by Err.
func (s *chunkStream) Next(be *trace.BlockExec) bool {
	if s.done {
		return false
	}
	hdr, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.done = true
		if err != io.EOF { // EOF at a record boundary is the clean end
			s.fail(err)
		} else {
			s.releaseReader()
		}
		return false
	}
	naccs := hdr >> 2
	if naccs > maxAccs {
		s.fail(fmt.Errorf("block declares %d accesses (max %d)", naccs, maxAccs))
		return false
	}
	delta, err := binary.ReadVarint(s.br)
	if err != nil {
		s.fail(err)
		return false
	}
	s.prevBlock += delta
	instrs, err := binary.ReadUvarint(s.br)
	if err != nil {
		s.fail(err)
		return false
	}
	*be = trace.BlockExec{
		Block:  int(s.prevBlock),
		Instrs: int(instrs),
		Branch: hdr&2 != 0,
		Taken:  hdr&1 != 0,
	}
	if naccs == 0 {
		be.Accs = nil
		return true
	}
	maskLen := int(naccs+7) / 8
	if cap(s.writeMask) < maskLen {
		s.writeMask = make([]byte, maskLen)
	}
	mask := s.writeMask[:maskLen]
	if _, err := io.ReadFull(s.br, mask); err != nil {
		s.fail(err)
		return false
	}
	if cap(s.accs) < int(naccs) {
		s.accs = make([]trace.Access, naccs)
	}
	accs := s.accs[:naccs]
	for i := range accs {
		d, err := binary.ReadVarint(s.br)
		if err != nil {
			s.fail(err)
			return false
		}
		s.prevAddr += uint64(d)
		accs[i] = trace.Access{
			Addr:  s.prevAddr,
			Write: mask[i/8]&(1<<(i%8)) != 0,
		}
	}
	be.Accs = accs
	return true
}

func (s *chunkStream) fail(err error) {
	s.done = true
	if s.err == nil {
		s.err = fmt.Errorf("tracefile: corrupt chunk: %w", err)
	}
	s.releaseReader()
}

// releaseReader returns the pooled chunk readers once the stream has no
// further use for them (clean EOF or decode failure). The stream object
// itself — including the Err state — stays valid for the caller.
func (s *chunkStream) releaseReader() {
	if s.cr != nil {
		chunkReaderPool.Put(s.cr)
		s.cr = nil
		s.br = nil
	}
}

// Err reports the first decoding error encountered, if any. A truncated or
// corrupt chunk ends the stream early; callers that need integrity
// guarantees should check Err after draining (File.Verify does).
func (s *chunkStream) Err() error { return s.err }

var _ trace.Stream = (*chunkStream)(nil)
