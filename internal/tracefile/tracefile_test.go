package tracefile

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"barrierpoint/internal/profile"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/workload"
)

// record writes p to a temp file and opens it back, failing the test on any
// error and closing the file at cleanup.
func record(t *testing.T, p trace.Program, opts ...Option) *File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bpt")
	if err := RecordFile(path, p, opts...); err != nil {
		t.Fatalf("RecordFile: %v", err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// v1Fixture returns handBuilt() as the last writer of the legacy version-1
// layout recorded it (testdata/handbuilt-v1*.bptrace). Nothing writes that
// layout any more; the committed bytes pin the reader that still accepts it.
func v1Fixture(tb testing.TB, gz bool) []byte {
	tb.Helper()
	name := "handbuilt-v1.bptrace"
	if gz {
		name = "handbuilt-v1-gzip.bptrace"
	}
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// drain collects every block of a stream, deep-copying Accs (streams reuse
// the backing array).
func drain(t *testing.T, s trace.Stream) []trace.BlockExec {
	t.Helper()
	var out []trace.BlockExec
	var be trace.BlockExec
	for s.Next(&be) {
		cp := be
		cp.Accs = append([]trace.Access(nil), be.Accs...)
		out = append(out, cp)
	}
	if cs, ok := s.(*chunkStream); ok && cs.Err() != nil {
		t.Fatalf("stream error: %v", cs.Err())
	}
	return out
}

// handBuilt exercises encoder edge cases the synthetic workloads do not:
// negative block deltas, backwards and huge address jumps, more than eight
// accesses per block (multi-byte write mask), zero-access blocks and all
// branch-flag combinations.
func handBuilt() *trace.SliceProgram {
	manyAccs := make([]trace.Access, 19)
	for i := range manyAccs {
		manyAccs[i] = trace.Access{Addr: uint64(i) * 0x1234567, Write: i%3 == 0}
	}
	return &trace.SliceProgram{
		ProgName:   "hand-built",
		NumThreads: 2,
		Rgns: []*trace.SliceRegion{
			{Threads: [][]trace.BlockExec{
				{
					{Block: 900, Instrs: 7, Branch: true, Taken: true,
						Accs: []trace.Access{{Addr: 1 << 45, Write: true}, {Addr: 64}}},
					{Block: 3, Instrs: 0, Branch: true, Taken: false}, // negative delta, no accesses
					{Block: 3, Instrs: 1, Accs: manyAccs},
				},
				nil, // thread 1 idle in region 0
			}},
			{Threads: [][]trace.BlockExec{
				nil,
				{{Block: 1, Instrs: 1000000, Accs: []trace.Access{{Addr: ^uint64(0) - 63}}}},
			}},
		},
	}
}

func TestRoundTripHandBuilt(t *testing.T) {
	for _, gz := range []bool{false, true} {
		p := handBuilt()
		f := record(t, p, WithGzip(gz))
		if f.Name() != p.Name() || f.Threads() != p.Threads() || f.Regions() != p.Regions() {
			t.Fatalf("gzip=%v: metadata = (%q,%d,%d), want (%q,%d,%d)", gz,
				f.Name(), f.Threads(), f.Regions(), p.Name(), p.Threads(), p.Regions())
		}
		if f.Gzipped() != gz {
			t.Errorf("Gzipped() = %v, want %v", f.Gzipped(), gz)
		}
		for r := 0; r < p.Regions(); r++ {
			for tid := 0; tid < p.Threads(); tid++ {
				got := drain(t, f.Region(r).Thread(tid))
				want := drain(t, p.Region(r).Thread(tid))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("gzip=%v region %d thread %d:\n got %+v\nwant %+v", gz, r, tid, got, want)
				}
			}
		}
		if err := f.Verify(); err != nil {
			t.Errorf("Verify: %v", err)
		}
	}
}

func TestThreadRestartable(t *testing.T) {
	f := record(t, handBuilt())
	r := f.Region(0)
	first := drain(t, r.Thread(0))
	second := drain(t, r.Thread(0)) // Region.Thread restarts per contract
	if !reflect.DeepEqual(first, second) {
		t.Fatal("re-requested thread stream differs from first pass")
	}
}

func TestEmptyProgram(t *testing.T) {
	p := &trace.SliceProgram{ProgName: "empty", NumThreads: 3}
	f := record(t, p)
	if f.Regions() != 0 || f.Threads() != 3 || f.Name() != "empty" {
		t.Fatalf("metadata = (%q,%d,%d)", f.Name(), f.Threads(), f.Regions())
	}
}

func TestRecordRejectsZeroThreads(t *testing.T) {
	p := &trace.SliceProgram{ProgName: "bad"}
	if err := Record(&bytes.Buffer{}, p); err == nil {
		t.Fatal("Record accepted a 0-thread program")
	}
}

func TestRecordRejectsOversizedBlock(t *testing.T) {
	// The reader bounds per-block access counts at maxAccs; the writer
	// must refuse such blocks instead of recording a file that would
	// silently truncate on replay.
	p := &trace.SliceProgram{
		ProgName:   "huge",
		NumThreads: 1,
		Rgns: []*trace.SliceRegion{{Threads: [][]trace.BlockExec{
			{{Block: 1, Instrs: 1, Accs: make([]trace.Access, maxAccs+1)}},
		}}},
	}
	if err := Record(&bytes.Buffer{}, p); err == nil {
		t.Fatal("Record accepted a block with more than maxAccs accesses")
	}
}

// TestRoundTripSuiteSignatures is the round-trip property test over the
// whole workload suite: for every benchmark and several thread counts, the
// recorded-then-replayed program must produce byte-identical per-region
// profiles (BBVs, LDVs, instruction counts) and hence identical signature
// vectors.
func TestRoundTripSuiteSignatures(t *testing.T) {
	threadCounts := []int{8, 16}
	if testing.Short() {
		threadCounts = []int{8}
	}
	for wi, name := range workload.Names() {
		for _, threads := range threadCounts {
			t.Run(name+"/"+string(rune('0'+threads/8))+"sock", func(t *testing.T) {
				t.Parallel()
				prog := workload.New(name, threads, workload.WithScale(0.05))
				gz := (wi+threads)%2 == 0 // alternate compression across cases
				f := record(t, prog, WithGzip(gz))

				want := profile.Program(prog)
				got := profile.Program(f)
				if len(got) != len(want) {
					t.Fatalf("replay has %d region profiles, want %d", len(got), len(want))
				}
				for r := range want {
					if !reflect.DeepEqual(got[r], want[r]) {
						t.Fatalf("region %d profile differs after replay", r)
					}
				}

				// Signature vectors are a deterministic function of the
				// profiles (sorted flat construction), so identical
				// profiles must produce entry-for-entry identical SVs.
				wantSV, wantW := signature.BuildAll(want, signature.Default())
				gotSV, gotW := signature.BuildAll(got, signature.Default())
				if !reflect.DeepEqual(gotW, wantW) {
					t.Fatal("signature weights differ after replay")
				}
				for r := range wantSV {
					if len(gotSV[r]) != len(wantSV[r]) {
						t.Fatalf("region %d: SV has %d features, want %d", r, len(gotSV[r]), len(wantSV[r]))
					}
					for i, e := range wantSV[r] {
						g := gotSV[r][i]
						if g.Key != e.Key || math.Abs(g.Val-e.Val) > 1e-12 {
							t.Fatalf("region %d feature %#x: SV entry %+v, want %+v", r, e.Key, g, e)
						}
					}
				}
			})
		}
	}
}

func TestOpenErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	var buf bytes.Buffer
	if err := Record(&buf, handBuilt()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"too-short":   good[:10],
		"bad-magic":   append([]byte("XXTRACE1"), good[8:]...),
		"bad-trailer": append(append([]byte{}, good[:len(good)-1]...), 'X'),
		"truncated":   good[:len(good)-20],
	}
	// Footer offset pointing past the end.
	broken := append([]byte{}, good...)
	copy(broken[len(broken)-16:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	cases["bad-footer-offset"] = broken

	for name, data := range cases {
		if _, err := Open(write(name, data)); err == nil {
			t.Errorf("%s: Open succeeded on corrupt input", name)
		}
	}
	if _, err := Open(filepath.Join(dir, "does-not-exist")); err == nil {
		t.Error("Open succeeded on missing file")
	}
}

func TestVerifyDetectsChunkCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Record(&buf, handBuilt(), WithGzip(true)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	intact, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle of the first chunk's deflate payload (the
	// first bytes are the gzip header, whose MTIME field is not checked).
	data[(intact.off[0]+intact.end[0])/2] ^= 0xff
	f, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("NewReader: %v", err) // index itself is intact
	}
	if err := f.Verify(); err == nil {
		t.Fatal("Verify passed on corrupt chunk data")
	}
}

// TestReplayMemoryIsPerRegion asserts the acceptance criterion that
// replayed profiling allocates O(region) memory: draining one region of a
// recorded trace costs a bounded number of allocations no matter how many
// regions the file holds (34 for npb-ft vs 3601 for npb-sp — a 100x region
// count must not change per-region replay allocations materially).
func TestReplayMemoryIsPerRegion(t *testing.T) {
	allocsPerRegion := func(name string) float64 {
		prog := workload.New(name, 8, workload.WithScale(0.05))
		f := record(t, prog)
		var be trace.BlockExec
		return testing.AllocsPerRun(10, func() {
			for tid := 0; tid < f.Threads(); tid++ {
				s := f.Region(0).Thread(tid)
				for s.Next(&be) {
				}
			}
		})
	}
	small := allocsPerRegion("npb-ft") // 34 regions
	large := allocsPerRegion("npb-sp") // 3601 regions
	// Per-stream cost is a handful of fixed-size objects (section reader,
	// bufio buffer, stream state, access slice): ~5 allocs per thread.
	const maxPerThread = 16
	if small > 8*maxPerThread || large > 8*maxPerThread {
		t.Fatalf("region replay allocates too much: npb-ft %.0f, npb-sp %.0f allocs", small, large)
	}
	if large > 4*small+8 {
		t.Fatalf("replay allocations scale with program size: %.0f (34 regions) vs %.0f (3601 regions)", small, large)
	}
}

// BenchmarkReplayRegion measures streaming one recorded region off disk.
// Its allocs/op report is the benchmark evidence that replay memory is
// O(region): the figure is a small constant (bufio buffer + stream state
// per thread) and independent of the file's total region count.
func BenchmarkReplayRegion(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(0.1))
	path := filepath.Join(b.TempDir(), "trace.bpt")
	if err := RecordFile(path, prog); err != nil {
		b.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var be trace.BlockExec
	for i := 0; i < b.N; i++ {
		r := f.Region(i % f.Regions())
		for tid := 0; tid < f.Threads(); tid++ {
			s := r.Thread(tid)
			for s.Next(&be) {
			}
		}
	}
}

func BenchmarkRecord(b *testing.B) {
	prog := workload.New("npb-ft", 8, workload.WithScale(0.1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Record(&buf, prog); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}
