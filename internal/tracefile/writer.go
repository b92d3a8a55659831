package tracefile

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"barrierpoint/internal/trace"
)

// Options configures recording.
type Options struct {
	// Gzip compresses every chunk independently. Files shrink by roughly
	// the entropy of the access patterns; random access is preserved
	// because no chunk depends on another.
	Gzip bool
}

// Option mutates recording Options.
type Option func(*Options)

// WithGzip enables or disables per-chunk gzip compression.
func WithGzip(on bool) Option {
	return func(o *Options) { o.Gzip = on }
}

// Record writes p to w in the binary trace format (see doc.go). It is a
// single forward pass: every region's thread streams are drained in order,
// so w never needs to seek and memory stays O(largest chunk encoding).
// The version 2 layout it writes is self-framing on the way in, so a reader
// on the other end of a pipe can decode regions as they arrive
// (DecodeStream) while the trailing index still serves random access.
func Record(w io.Writer, p trace.Program, opts ...Option) error {
	var o Options
	for _, f := range opts {
		f(&o)
	}
	threads, regions := p.Threads(), p.Regions()
	if threads <= 0 {
		return fmt.Errorf("tracefile: program %q has %d threads", p.Name(), threads)
	}

	var flags byte
	if o.Gzip {
		flags |= flagGzip
	}
	meta := binary.AppendUvarint(nil, uint64(len(p.Name())))
	meta = append(meta, p.Name()...)
	meta = binary.AppendUvarint(meta, uint64(threads))
	meta = binary.AppendUvarint(meta, uint64(regions))
	meta = append(meta, flags)

	if _, err := io.WriteString(w, magicV2); err != nil {
		return fmt.Errorf("tracefile: writing header: %w", err)
	}
	// Streaming header: the footer metadata, up front, so a pipe
	// consumer knows the trace's shape before the first chunk.
	if _, err := w.Write(meta); err != nil {
		return fmt.Errorf("tracefile: writing header: %w", err)
	}
	offset := int64(magicLen + len(meta))

	lengths := make([]uint64, 0, regions*threads)
	var raw []byte // reused chunk encoding buffer
	var zbuf bytes.Buffer
	var zw *gzip.Writer
	if o.Gzip {
		zw = gzip.NewWriter(&zbuf)
	}
	var pfx [binary.MaxVarintLen64]byte
	for r := 0; r < regions; r++ {
		region := p.Region(r)
		for t := 0; t < threads; t++ {
			var err error
			raw, err = encodeChunk(raw[:0], region.Thread(t))
			if err != nil {
				return fmt.Errorf("tracefile: encoding region %d thread %d: %w", r, t, err)
			}
			chunk := raw
			if o.Gzip {
				zbuf.Reset()
				zw.Reset(&zbuf)
				if _, err := zw.Write(raw); err != nil {
					return fmt.Errorf("tracefile: compressing region %d thread %d: %w", r, t, err)
				}
				if err := zw.Close(); err != nil {
					return fmt.Errorf("tracefile: compressing region %d thread %d: %w", r, t, err)
				}
				chunk = zbuf.Bytes()
			}
			n := binary.PutUvarint(pfx[:], uint64(len(chunk)))
			if _, err := w.Write(pfx[:n]); err != nil {
				return fmt.Errorf("tracefile: writing region %d thread %d: %w", r, t, err)
			}
			offset += int64(n)
			if _, err := w.Write(chunk); err != nil {
				return fmt.Errorf("tracefile: writing region %d thread %d: %w", r, t, err)
			}
			lengths = append(lengths, uint64(len(chunk)))
			offset += int64(len(chunk))
		}
	}

	// Trailing index: footer (the same metadata block plus the payload
	// lengths), its offset, and the trailer magic.
	footer := meta
	for _, n := range lengths {
		footer = binary.AppendUvarint(footer, n)
	}
	if _, err := w.Write(footer); err != nil {
		return fmt.Errorf("tracefile: writing footer: %w", err)
	}
	var tail [tailLen]byte
	binary.LittleEndian.PutUint64(tail[:8], uint64(offset))
	copy(tail[8:], trailerMagicV2)
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("tracefile: writing trailer: %w", err)
	}
	return nil
}

// RecordFile records p into a new file at path, replacing any existing
// file. On error the partial file is removed.
func RecordFile(path string, p trace.Program, opts ...Option) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tracefile: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := Record(bw, p, opts...); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := bw.Flush(); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("tracefile: %w", err)
	}
	return nil
}
