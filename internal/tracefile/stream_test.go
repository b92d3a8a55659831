package tracefile

import (
	"bytes"
	"encoding/binary"
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
		if !info.Streamed {
			t.Fatalf("gzip=%v: v2 stream not streamed", gz)
		}
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

// TestStreamDigestMatchesFile is the content-addressing keystone: the digest
// computed incrementally during upload equals the digest computed later by
// random access over the stored file, and only then can profiles cached at
// ingest be found by analyze.
func TestStreamDigestMatchesFile(t *testing.T) {
	for _, gz := range []bool{false, true} {
		p := workload.New("npb-ft", 4, workload.WithScale(0.05))
		var buf bytes.Buffer
		if err := Record(&buf, p, WithGzip(gz)); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		_, regions := collectStream(t, data)
		f, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		for i, rc := range regions {
			want, err := f.RegionDigest(i)
			if err != nil {
				t.Fatalf("RegionDigest(%d): %v", i, err)
			}
			if rc.Digest != want {
				t.Fatalf("gzip=%v region %d: stream digest %s, file digest %s", gz, i, rc.Digest, want)
			}
		}
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
		f, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, f.Regions())
		for i := range out {
			if out[i], err = f.RegionDigest(i); err != nil {
				t.Fatal(err)
			}
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

// TestDecodeStreamV1Fallback: version-1 bytes carry no inline framing, so
// DecodeStream must drain them fully (the tee'd store copy depends on it)
// and report Streamed=false without invoking the callback.
func TestDecodeStreamV1Fallback(t *testing.T) {
	r := bytes.NewReader(v1Fixture(t, false))
	info, err := DecodeStream(r, func(RegionChunks) error {
		t.Fatal("callback invoked for v1 input")
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeStream: %v", err)
	}
	if info.Streamed {
		t.Fatal("v1 input reported as streamed")
	}
	if r.Len() != 0 {
		t.Fatalf("v1 input not drained: %d bytes left", r.Len())
	}
}

// TestV1StillReadable: files recorded in the legacy layout open, replay and
// verify exactly as before the version bump.
func TestV1StillReadable(t *testing.T) {
	p := handBuilt()
	for _, gz := range []bool{false, true} {
		data := v1Fixture(t, gz)
		f, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		if !bytes.HasPrefix(data, []byte(magicV1)) {
			t.Fatalf("fixture starts %q, want the version-1 magic", data[:magicLen])
		}
		if f.Name() != p.Name() || f.Threads() != p.Threads() || f.Regions() != p.Regions() {
			t.Fatalf("v1 metadata = (%q,%d,%d)", f.Name(), f.Threads(), f.Regions())
		}
		for r := 0; r < p.Regions(); r++ {
			for tid := 0; tid < p.Threads(); tid++ {
				if !reflect.DeepEqual(drain(t, f.Region(r).Thread(tid)), drain(t, p.Region(r).Thread(tid))) {
					t.Errorf("v1 gzip=%v region %d thread %d differs", gz, r, tid)
				}
			}
		}
		if err := f.Verify(); err != nil {
			t.Errorf("v1 Verify: %v", err)
		}
	}
}

// TestV1V2DigestsAgree: the region digest covers encoded payloads, not file
// framing, so the same program recorded in both versions shares digests —
// profiles cached from a v2 upload serve analyses of an equivalent v1 file.
func TestV1V2DigestsAgree(t *testing.T) {
	p := handBuilt()
	var buf bytes.Buffer
	if err := Record(&buf, p); err != nil {
		t.Fatal(err)
	}
	open := func(data []byte) *File {
		f, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f1, f2 := open(v1Fixture(t, false)), open(buf.Bytes())
	for i := 0; i < p.Regions(); i++ {
		d1, err1 := f1.RegionDigest(i)
		d2, err2 := f2.RegionDigest(i)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if d1 != d2 {
			t.Fatalf("region %d: v1 digest %s != v2 digest %s", i, d1, d2)
		}
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

// TestRegionDigestReadsThroughOneBuffer: RegionDigest hashes a region
// through one small read buffer — chunks longer than the buffer included —
// and leaves next to no garbage behind: it is the fallback of every
// analysis whose trace has no digest index, and a fresh 32 KB per chunk
// (what io.Copy allocates) was 256 KB per call on an 8-thread trace.
func TestRegionDigestReadsThroughOneBuffer(t *testing.T) {
	big := make([]trace.BlockExec, 30000) // encodes to well over one buffer
	for i := range big {
		big[i] = trace.BlockExec{Block: i % 97, Instrs: 4, Accs: []trace.Access{{Addr: uint64(i) * 4096}}}
	}
	threads := make([][]trace.BlockExec, 8)
	for tid := range threads {
		threads[tid] = big[:100*(tid+1)]
	}
	threads[3] = big
	p := &trace.SliceProgram{ProgName: "digest", NumThreads: 8, Rgns: []*trace.SliceRegion{{Threads: threads}, {Threads: threads}}}
	var buf bytes.Buffer
	if err := Record(&buf, p); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	_, regions := collectStream(t, data)
	if n := len(regions[1].Chunks[3]); n <= 32<<10 { // several buffers long
		t.Fatalf("big chunk is only %d bytes: the test needs one longer than the read buffer", n)
	}
	f, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := f.RegionDigest(1); err != nil || got != regions[1].Digest {
		t.Fatalf("RegionDigest = %s, %v; the stream digested %s", got, err, regions[1].Digest)
	}

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := f.RegionDigest(1); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if allocs > 6 {
		t.Errorf("RegionDigest makes %v allocations per call, want a handful", allocs)
	}
	if perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perCall >= 8<<10 {
		t.Errorf("RegionDigest allocates %d bytes per call, want < 8 KB", perCall)
	}
}
