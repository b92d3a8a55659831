package tracefile

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"barrierpoint/internal/trace"
	"barrierpoint/internal/workload"
)

// The fuzz targets guard the reader's promise: arbitrary bytes — a
// corrupted trailing index, truncated chunks, bad varints, hostile chunk
// counts — must produce an error (or a truncated stream with Err set),
// never a panic or a pathological allocation. Seeds are recorded example
// traces plus deliberately damaged variants steering the fuzzer at the
// index- and chunk-parsing code; `go test -run TestUpdateFuzzCorpus
// -update-corpus` rewrites the committed corpus under testdata/fuzz.

// fuzzSeeds returns recorded example traces: the hand-built edge-case
// program (plain and gzip, in both format versions) and a small real
// workload recording.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	rec := func(p trace.Program, opts ...Option) {
		var buf bytes.Buffer
		if err := Record(&buf, p, opts...); err != nil {
			tb.Fatalf("recording seed: %v", err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	rec(handBuilt())
	rec(handBuilt(), WithGzip(true))
	seeds = append(seeds, v1Fixture(tb, false), v1Fixture(tb, true))
	rec(workload.New("npb-is", 8, workload.WithScale(0.01)))
	return seeds
}

// corrupt derives damaged variants of a valid trace: truncations that cut
// chunks and the trailing index, and byte flips in the trailer offset,
// the footer varints and the first chunk.
func corrupt(seed []byte) [][]byte {
	if len(seed) < magicLen+tailLen+8 {
		return nil
	}
	var out [][]byte
	for _, n := range []int{len(seed) / 2, len(seed) - 1, len(seed) - tailLen, magicLen + 1} {
		if n > 0 && n < len(seed) {
			out = append(out, seed[:n])
		}
	}
	flip := func(off int, mask byte) {
		b := append([]byte(nil), seed...)
		b[off] ^= mask
		out = append(out, b)
	}
	flip(len(seed)-tailLen, 0xff)   // trailer footer-offset low byte
	flip(len(seed)-tailLen-1, 0x80) // last footer byte (a chunk-length varint)
	flip(len(seed)-tailLen-2, 0xff) // deeper footer varint damage
	flip(magicLen, 0xff)            // first chunk byte (decode-time corruption)
	flip(magicLen+1, 0x80)          // varint continuation bit inside a chunk
	return out
}

func allSeeds(tb testing.TB) [][]byte {
	var all [][]byte
	for _, s := range fuzzSeeds(tb) {
		all = append(all, s)
		all = append(all, corrupt(s)...)
	}
	return all
}

// FuzzOpen hammers the index parser: NewReader must reject damaged input
// with an error, never panic, and accepted files must report sane
// metadata.
func FuzzOpen(f *testing.F) {
	for _, s := range allSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return // rejected: the only acceptable failure mode
		}
		if tf.Threads() <= 0 {
			t.Fatalf("accepted file with %d threads", tf.Threads())
		}
		if tf.Regions() < 0 {
			t.Fatalf("accepted file with %d regions", tf.Regions())
		}
	})
}

// FuzzReplay goes further: any file the reader accepts is fully decoded,
// chunk by chunk. Corrupt chunk contents must surface as stream errors
// (or clean truncation), never as panics or unbounded allocations.
func FuzzReplay(f *testing.F) {
	for _, s := range allSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		var be trace.BlockExec
		for r := 0; r < tf.Regions(); r++ {
			region := tf.Region(r)
			for tid := 0; tid < tf.Threads(); tid++ {
				s := region.Thread(tid)
				for s.Next(&be) {
					if len(be.Accs) > maxAccs {
						t.Fatalf("region %d thread %d: block with %d accesses escaped the cap", r, tid, len(be.Accs))
					}
				}
				// A decode error is fine; it just must be reported, not
				// swallowed by a panic.
				_ = s.(*chunkStream).Err()
			}
		}
	})
}

// FuzzDecodeStream covers the incremental path: hostile bytes fed to the
// streaming decoder must error out (or drain, for v1 magic), never panic
// or allocate unboundedly, and any region it does deliver must replay
// without panicking.
func FuzzDecodeStream(f *testing.F) {
	for _, s := range allSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var be trace.BlockExec
		_, _ = DecodeStream(bytes.NewReader(data), func(rc RegionChunks) error {
			region := rc.Region()
			for tid := range rc.Chunks {
				s := region.Thread(tid)
				for s.Next(&be) {
					if len(be.Accs) > maxAccs {
						t.Fatalf("region %d thread %d: block with %d accesses escaped the cap", rc.Index, tid, len(be.Accs))
					}
				}
			}
			return nil
		})
	})
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

// TestUpdateFuzzCorpus regenerates the committed seed corpus (in the Go
// fuzzing corpus-file encoding) from the recorded example traces, so CI
// fuzz smoke runs start from meaningful inputs even before any local
// fuzzing cache exists. Run with -update-corpus to rewrite.
func TestUpdateFuzzCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to rewrite testdata/fuzz")
	}
	// The committed corpus stays lean: every recorded seed, but corrupted
	// variants only of the small hand-built traces (the fuzz targets
	// f.Add the full variant set in-memory anyway).
	seeds := fuzzSeeds(t)
	lean := append([][]byte(nil), seeds...)
	for _, s := range seeds[:4] {
		lean = append(lean, corrupt(s)...)
	}
	for _, target := range []string{"FuzzOpen", "FuzzReplay", "FuzzDecodeStream"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range lean {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}
