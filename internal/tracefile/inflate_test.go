package tracefile

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"slices"
	"testing"

	"barrierpoint/internal/trace"
)

// drainRecords copies every record of s and returns them with s's error.
func drainRecords(s *chunkStream) ([]trace.BlockExec, string) {
	var out []trace.BlockExec
	var be trace.BlockExec
	for s.Next(&be) {
		be.Accs = slices.Clone(be.Accs)
		out = append(out, be)
	}
	if s.Err() != nil {
		return out, s.Err().Error()
	}
	return out, ""
}

// gzipBytes compresses b as the writer does, one gzip member.
func gzipBytes(t *testing.T, b []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipWindowDecodesAsWhole: a gzip chunk read through the inflate window
// decodes exactly as its whole inflated payload would, records and error
// alike, wherever the refills land — inside a varint, a write mask or an
// access list — and wherever the payload or the deflate stream breaks off.
func TestGzipWindowDecodesAsWhole(t *testing.T) {
	defer func(w int) { inflateWindow = w }(inflateWindow)
	blocks := []trace.BlockExec{{Block: 5, Instrs: 3}}
	addr := uint64(1 << 40)
	for i, n := range []int{1, 8, 9, 17, 40, 0, 3} {
		be := trace.BlockExec{Block: 7 - 3*i, Instrs: 100 * i, Branch: i%2 == 0, Taken: i%3 == 0}
		for j := 0; j < n; j++ {
			addr = addr*31 + uint64(j)<<(j%60) // deltas from 1 byte to 10
			be.Accs = append(be.Accs, trace.Access{Addr: addr, Write: (i+j)%3 == 0})
		}
		blocks = append(blocks, be)
	}
	chunk, err := encodeChunk(nil, &trace.SliceStream{Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	// Payloads: every prefix of the chunk, and the chunk with one byte set to
	// a continuation byte. Compressed streams: each payload whole, and the
	// whole chunk's cut short at every length.
	var streams [][]byte
	for n := 0; n <= len(chunk); n++ {
		streams = append(streams, gzipBytes(t, chunk[:n]))
	}
	for i := range chunk {
		bad := slices.Clone(chunk)
		bad[i] |= 0x80
		streams = append(streams, gzipBytes(t, bad))
	}
	whole := gzipBytes(t, chunk)
	for n := 10; n < len(whole); n++ {
		streams = append(streams, whole[:n])
	}
	for _, w := range []int{1, 2, 3, 7, 16, 64 << 10} {
		inflateWindow = w
		for i, gz := range streams {
			zr, err := gzip.NewReader(bytes.NewReader(gz))
			got, gerr := openChunkStream(new(chunkBuf), gz, true)
			if (err == nil) != (gerr == nil) {
				t.Fatalf("window %d stream %d: opening %v, reference %v", w, i, gerr, err)
			}
			if err != nil {
				continue
			}
			out, err := io.ReadAll(zr)
			want := &chunkStream{buf: out, tail: err, cb: new(chunkBuf)}
			gb, ge := drainRecords(got)
			wb, we := drainRecords(want)
			if ge != we || !slices.EqualFunc(gb, wb, func(a, b trace.BlockExec) bool {
				return a.Block == b.Block && a.Instrs == b.Instrs && a.Branch == b.Branch && a.Taken == b.Taken && slices.Equal(a.Accs, b.Accs)
			}) {
				t.Fatalf("window %d stream %d: %d records (%q), whole payload %d (%q)", w, i, len(gb), ge, len(wb), we)
			}
		}
	}
}

// emptyBlocks is a one-thread, one-region program of n empty blocks. Each
// records as three zero bytes, so its gzip chunk inflates about 1000:1.
type emptyBlocks int

func (emptyBlocks) Name() string              { return "empty-blocks" }
func (emptyBlocks) Threads() int              { return 1 }
func (emptyBlocks) Regions() int              { return 1 }
func (n emptyBlocks) Region(int) trace.Region { return n }
func (n emptyBlocks) Thread(int) trace.Stream { left := int(n); return (*countdown)(&left) }

type countdown int

func (c *countdown) Next(be *trace.BlockExec) bool {
	if *c == 0 {
		return false
	}
	*c--
	*be = trace.BlockExec{}
	return true
}

// TestGzipChunkInflatesThroughWindow: replaying a gzip chunk costs the
// compressed payload and one inflate window, not the inflated size, on both
// paths that decode one — File replay and the regions DecodeStream hands an
// upload's profilers. A trace of 12 MiB of zeros compressed to a few KiB
// must replay in well under its inflated size.
func TestGzipChunkInflatesThroughWindow(t *testing.T) {
	const n = 4 << 20
	var buf bytes.Buffer
	if err := Record(&buf, emptyBlocks(n), WithGzip(true)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const bound = 2 << 20
	allocated := func(what string, replay func() trace.Stream) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := replay()
		var be trace.BlockExec
		blocks := 0
		for s.Next(&be) {
			blocks++
		}
		runtime.ReadMemStats(&after)
		if err := trace.Err(s); err != nil || blocks != n {
			t.Fatalf("%s: %d blocks (%v), want %d", what, blocks, err, n)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%s: replaying %d KiB of gzip allocated %d KiB, want under %d KiB", what, len(data)>>10, got>>10, bound>>10)
		}
	}
	allocated("file", func() trace.Stream {
		f, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		return f.Region(0).Thread(0)
	})
	allocated("upload", func() trace.Stream {
		var region trace.Region
		if _, err := DecodeStream(bytes.NewReader(data), func(rc RegionChunks) error {
			region = rc.Region()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return region.Thread(0)
	})
}
