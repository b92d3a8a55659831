package tracefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"barrierpoint/internal/trace"
	"barrierpoint/internal/workload"
)

// collectStream runs DecodeStream over data and returns the info plus every
// region callback, failing the test on decode error.
func collectStream(t *testing.T, data []byte) (StreamInfo, []RegionChunks) {
	t.Helper()
	var regions []RegionChunks
	info, err := DecodeStream(bytes.NewReader(data), func(rc RegionChunks) error {
		regions = append(regions, rc)
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeStream: %v", err)
	}
	return info, regions
}

func TestDecodeStreamRoundTrip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		p := handBuilt()
		var buf bytes.Buffer
		if err := Record(&buf, p, WithGzip(gz)); err != nil {
			t.Fatal(err)
		}
		info, regions := collectStream(t, buf.Bytes())
		if info.Name != p.Name() || info.Threads != p.Threads() || info.Regions != p.Regions() || info.Gzip != gz {
			t.Fatalf("gzip=%v: info = %+v", gz, info)
		}
		if len(regions) != p.Regions() {
			t.Fatalf("gzip=%v: %d region callbacks, want %d", gz, len(regions), p.Regions())
		}
		for i, rc := range regions {
			if rc.Index != i {
				t.Fatalf("region callback %d has index %d", i, rc.Index)
			}
			if rc.Gzip != gz {
				t.Fatalf("region %d Gzip = %v, want %v", i, rc.Gzip, gz)
			}
			// Replay of the in-memory region must equal the original.
			mem := rc.Region()
			for tid := 0; tid < p.Threads(); tid++ {
				got := drain(t, mem.Thread(tid))
				want := drain(t, p.Region(i).Thread(tid))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("gzip=%v region %d thread %d: streamed replay differs", gz, i, tid)
				}
			}
		}
	}
}

// framedDigest recomputes a region's digest under the documented framing:
// the tag, the flags byte and uvarint(threads), then every chunk as
// uvarint(len) + payload.
func framedDigest(gz bool, chunks [][]byte) string {
	b := append([]byte(digestTag), 0)
	if gz {
		b[len(b)-1] = flagGzip
	}
	b = binary.AppendUvarint(b, uint64(len(chunks)))
	for _, c := range chunks {
		b = append(binary.AppendUvarint(b, uint64(len(c))), c...)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// wantFileChunks fails unless the chunks DecodeStream delivered are exactly
// the bytes the file indexes for each region, so that the stored file
// re-streams to the digests its upload had.
func wantFileChunks(t *testing.T, data []byte, regions []RegionChunks) {
	t.Helper()
	f, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range regions {
		for tid, chunk := range rc.Chunks {
			if c := i*f.Threads() + tid; !bytes.Equal(chunk, data[f.off[c]:f.end[c]]) {
				t.Fatalf("region %d thread %d: streamed chunk differs from the file's", i, tid)
			}
		}
	}
}

// TestStreamDigestMatchesFile is the content-addressing keystone: the digest
// DecodeStream computes is the documented framing over exactly the chunk
// bytes the file holds, so an upload and a later pass over the stored file
// key the same profiles.
func TestStreamDigestMatchesFile(t *testing.T) {
	for _, gz := range []bool{false, true} {
		p := workload.New("npb-ft", 4, workload.WithScale(0.05))
		var buf bytes.Buffer
		if err := Record(&buf, p, WithGzip(gz)); err != nil {
			t.Fatal(err)
		}
		_, regions := collectStream(t, buf.Bytes())
		wantFileChunks(t, buf.Bytes(), regions)
		for i, rc := range regions {
			if want := framedDigest(gz, rc.Chunks); rc.Digest != want {
				t.Fatalf("gzip=%v region %d: stream digest %s, framed digest %s", gz, i, rc.Digest, want)
			}
		}
	}
}

// TestStreamChunkOverOneMiB: a chunk longer than the 1 MiB DecodeStream
// reads straight into place arrives in two parts and still matches the file,
// byte for byte and by digest.
func TestStreamChunkOverOneMiB(t *testing.T) {
	blocks := make([]trace.BlockExec, 300000)
	for i := range blocks {
		blocks[i] = trace.BlockExec{Block: i, Instrs: 3, Accs: []trace.Access{{Addr: uint64(i) * 4096}}}
	}
	p := &trace.SliceProgram{ProgName: "big", NumThreads: 1, Rgns: []*trace.SliceRegion{{Threads: [][]trace.BlockExec{blocks}}}}
	var buf bytes.Buffer
	if err := Record(&buf, p); err != nil {
		t.Fatal(err)
	}
	_, regions := collectStream(t, buf.Bytes())
	if chunk := regions[0].Chunks[0]; len(chunk) <= 1<<20 {
		t.Fatalf("%d-byte chunk: the test needs one over 1 MiB", len(chunk))
	}
	wantFileChunks(t, buf.Bytes(), regions)
	if want := framedDigest(false, regions[0].Chunks); regions[0].Digest != want {
		t.Fatalf("stream digest %s, framed digest %s", regions[0].Digest, want)
	}
}

// TestDigestIndependentOfPlacement asserts that a region's digest does not
// depend on which trace carries it: the same region content recorded in two
// different programs (different neighbors, different file offsets) digests
// identically, while differing content digests differently.
func TestDigestIndependentOfPlacement(t *testing.T) {
	rgn := func(block int) *trace.SliceRegion {
		return &trace.SliceRegion{Threads: [][]trace.BlockExec{
			{{Block: block, Instrs: 10, Accs: []trace.Access{{Addr: 0x1000}}}},
			{{Block: block + 1, Instrs: 3}},
		}}
	}
	a := &trace.SliceProgram{ProgName: "a", NumThreads: 2, Rgns: []*trace.SliceRegion{rgn(1), rgn(7)}}
	b := &trace.SliceProgram{ProgName: "b", NumThreads: 2, Rgns: []*trace.SliceRegion{rgn(99), rgn(7), rgn(1)}}
	digests := func(p trace.Program) []string {
		var buf bytes.Buffer
		if err := Record(&buf, p); err != nil {
			t.Fatal(err)
		}
		_, regions := collectStream(t, buf.Bytes())
		out := make([]string, len(regions))
		for i, rc := range regions {
			out[i] = rc.Digest
		}
		return out
	}
	da, db := digests(a), digests(b)
	if da[1] != db[1] || da[0] != db[2] {
		t.Error("identical region content digests differently across traces")
	}
	if da[0] == da[1] || da[0] == db[0] {
		t.Error("distinct region content collided")
	}
}

func TestDecodeStreamErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(&buf, handBuilt()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	nop := func(RegionChunks) error { return nil }

	t.Run("bad-magic", func(t *testing.T) {
		data := append([]byte("XXTRACE9"), good[8:]...)
		if _, err := DecodeStream(bytes.NewReader(data), nop); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("version-1-magic", func(t *testing.T) {
		if _, err := DecodeStream(bytes.NewReader(asV1(good)), nop); !errors.Is(err, ErrFormat) {
			t.Fatalf("err = %v, want ErrFormat", err)
		}
	})
	t.Run("truncated-mid-chunk", func(t *testing.T) {
		if _, err := DecodeStream(bytes.NewReader(good[:len(good)/2]), nop); err == nil {
			t.Fatal("accepted truncated stream")
		}
	})
	t.Run("missing-trailer", func(t *testing.T) {
		if _, err := DecodeStream(bytes.NewReader(good[:len(good)-tailLen]), nop); err == nil {
			t.Fatal("accepted stream without trailer")
		}
	})
	t.Run("corrupt-footer-length", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[len(data)-tailLen-1] ^= 0x01 // last footer byte: a chunk length
		if _, err := DecodeStream(bytes.NewReader(data), nop); err == nil {
			t.Fatal("accepted footer disagreeing with stream")
		}
	})
	t.Run("overlong-chunk-length", func(t *testing.T) {
		// The first chunk's length in one more varint byte than it needs:
		// the value holds, but every later byte sits one past where the
		// footer offset says, which would misplace NewReader's chunks.
		f, err := NewReader(bytes.NewReader(good), int64(len(good)))
		if err != nil {
			t.Fatal(err)
		}
		at := f.off[0] - 1
		data := append(append(append([]byte(nil), good[:at]...), good[at]|0x80, 0), good[at+1:]...)
		if _, err := DecodeStream(bytes.NewReader(data), nop); !errors.Is(err, ErrFormat) {
			t.Fatalf("err = %v, want ErrFormat", err)
		}
	})
	t.Run("callback-error-aborts", func(t *testing.T) {
		sentinel := errors.New("stop")
		calls := 0
		_, err := DecodeStream(bytes.NewReader(good), func(RegionChunks) error {
			calls++
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
		if calls != 1 {
			t.Fatalf("callback ran %d times after erroring", calls)
		}
	})
	t.Run("short-read-source", func(t *testing.T) {
		// A reader that errors mid-stream (a dropped upload connection).
		r := io.MultiReader(bytes.NewReader(good[:20]), iotest{})
		if _, err := DecodeStream(r, nop); err == nil {
			t.Fatal("accepted stream that died mid-transfer")
		}
	})
	t.Run("huge-header-counts", func(t *testing.T) {
		// Regression: a ~20-byte upload whose header claims the maximum
		// thread and region counts parseMeta admits. Sizing any allocation
		// from those counts either panics (threads*regions overflows a
		// slice cap) or commits gigabytes before a single payload byte has
		// been read; the decoder must instead fail on the missing first
		// chunk.
		for _, counts := range [][2]uint64{
			{1 << 20, 1 << 40}, // cap overflow: panic before the fix
			{1 << 20, 1 << 17}, // 1 TiB worth of uint64 lengths if pre-sized
		} {
			hdr := []byte(magicV2)
			hdr = append(hdr, 1, 'x') // name "x"
			hdr = binary.AppendUvarint(hdr, counts[0])
			hdr = binary.AppendUvarint(hdr, counts[1])
			hdr = append(hdr, 0) // flags
			_, err := DecodeStream(bytes.NewReader(hdr), nop)
			if !errors.Is(err, ErrFormat) {
				t.Fatalf("counts %v: err = %v, want ErrFormat", counts, err)
			}
		}
	})
	t.Run("huge-chunk-length", func(t *testing.T) {
		// A 20-byte upload whose first chunk claims 2 GiB: the decoder may
		// take the prefix's word for 1 MiB, no more, before
		// the missing payload fails it.
		hdr := []byte(magicV2)
		hdr = append(hdr, 1, 'x', 1, 1, 0) // name "x", 1 thread, 1 region, no flags
		hdr = binary.AppendUvarint(hdr, 2<<30)
		hdr = append(hdr, 1, 2, 3, 4)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeStream(bytes.NewReader(hdr), nop)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFormat) {
			t.Fatalf("err = %v, want ErrFormat", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
			t.Fatalf("decoding a %d-byte body allocated %d bytes, want < 2 MiB", len(hdr), got)
		}
	})
}

// iotest is a reader that always fails, standing in for a dropped network
// connection.
type iotest struct{}

func (iotest) Read([]byte) (int, error) { return 0, errors.New("connection reset") }
