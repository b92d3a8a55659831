package farm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"barrierpoint/internal/store"
)

// FuzzWALReplay hammers the journal replay with arbitrary bytes. Replay
// guards the coordinator's restart path, so it must never panic, never
// allocate unboundedly, and always produce a state that the compaction
// encoding can round-trip — a damaged journal may lose its tail, but it
// must never wedge recovery. Seeds are real journals written by a live
// queue plus damaged variants; `go test -run TestUpdateFuzzCorpus
// -update-corpus` rewrites the committed corpus under testdata/fuzz.

var fuzzCRC = crc32.MakeTable(crc32.Castagnoli)

// fuzzFrame encodes one record in the WAL framing (length, CRC-32C,
// payload) without going through a file, for seed and round-trip
// construction.
func fuzzFrame(payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], crc32.Checksum(payload, fuzzCRC))
	copy(b[8:], payload)
	return b
}

// replayWALReader folds every intact record of data into a fresh state
// through the shared journal replay — the same fold NewDurableQueue hands
// store.OpenJournal.
func replayWALReader(data []byte) (*walState, int64, int, error) {
	s := newWALState()
	valid, n, err := store.ReplayJournal(bytes.NewReader(data), s.apply)
	return s, valid, n, err
}

// encodeLive serializes a replayed state exactly the way the compaction
// snapshot (liveRecordsLocked) would: per live task an enqueue record with its failure log, plus a
// lease record if it was in flight.
func encodeLive(s *walState) []byte {
	var buf bytes.Buffer
	emit := func(rec walRecord) {
		b, err := json.Marshal(rec)
		if err != nil {
			panic(err) // walRecord marshaling cannot fail
		}
		buf.Write(fuzzFrame(b))
	}
	for _, wt := range s.live() {
		emit(walRecord{Op: opEnqueue, Task: &wt.Task, Failures: wt.failures})
		if wt.leased {
			emit(walRecord{Op: opLease, ID: wt.ID, Worker: wt.worker, Attempt: wt.Attempt})
		}
	}
	return buf.Bytes()
}

// walFuzzSeeds records real journals: a fresh queue driven through every
// record type, and the compacted journal a restart of it leaves behind.
func walFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	q, _, st, walPath := newDurable(tb, dir)
	for r := 0; r < 3; r++ {
		if _, err := q.Enqueue(spec(r)); err != nil {
			tb.Fatal(err)
		}
	}
	tasks := q.Lease("w1", 2)
	if len(tasks) != 2 {
		tb.Fatalf("leased %d tasks, want 2", len(tasks))
	}
	if err := q.Fail("w1", tasks[0].ID, "seed failure"); err != nil {
		tb.Fatal(err)
	}
	if err := q.Complete("w1", tasks[1].ID, resultJSON(tb)); err != nil {
		tb.Fatal(err)
	}
	crash(q)
	full, err := os.ReadFile(walPath)
	if err != nil {
		tb.Fatal(err)
	}

	// Reopening compacts: the second seed is the canonical live-state form.
	q2, _ := reopenDurable(tb, st, walPath)
	crash(q2)
	compacted, err := os.ReadFile(walPath)
	if err != nil {
		tb.Fatal(err)
	}

	// Hand-built pathological records replay must shrug off: references to
	// unknown tasks, an id-less enqueue, a duplicate enqueue, a negative
	// attempt, and an intact frame that is not JSON at all.
	rec := func(w walRecord) []byte {
		b, err := json.Marshal(w)
		if err != nil {
			tb.Fatal(err)
		}
		return fuzzFrame(b)
	}
	var odd bytes.Buffer
	odd.Write(rec(walRecord{Op: opLease, ID: "task-999999", Worker: "ghost"}))
	odd.Write(rec(walRecord{Op: opEnqueue, Task: &Task{}}))
	odd.Write(rec(walRecord{Op: opComplete, ID: "never-existed"}))
	odd.Write(rec(walRecord{Op: opEnqueue, Task: &Task{ID: "task-000001", TraceKey: fakeTraceKey, Region: 1, Attempt: -3}}))
	odd.Write(rec(walRecord{Op: opEnqueue, Task: &Task{ID: "task-000001", TraceKey: fakeTraceKey, Region: 2}}))
	odd.Write(rec(walRecord{Op: opLease, ID: "task-000001", Worker: "w1"}))
	odd.Write(fuzzFrame([]byte("not json at all")))
	odd.Write(rec(walRecord{Op: opRequeue, ID: "task-000001", Msg: "requeued"}))

	return [][]byte{full, compacted, odd.Bytes()}
}

// corruptWAL derives damaged journal variants: truncations through frame
// boundaries and flips in the length, checksum and payload bytes.
func corruptWAL(seed []byte) [][]byte {
	if len(seed) < 16 {
		return nil
	}
	var out [][]byte
	for _, n := range []int{len(seed) / 2, len(seed) - 1, 9, 4} {
		if n > 0 && n < len(seed) {
			out = append(out, seed[:n])
		}
	}
	flip := func(off int, mask byte) {
		b := append([]byte(nil), seed...)
		b[off] ^= mask
		out = append(out, b)
	}
	flip(0, 0xff) // first frame's length field
	flip(4, 0x01) // first frame's checksum
	flip(9, 0x20) // payload byte (JSON damage behind a now-bad checksum)
	flip(len(seed)-1, 0x80)
	return out
}

func allWALSeeds(tb testing.TB) [][]byte {
	var all [][]byte
	for _, s := range walFuzzSeeds(tb) {
		all = append(all, s)
		all = append(all, corruptWAL(s)...)
	}
	return all
}

func FuzzWALReplay(f *testing.F) {
	for _, s := range allWALSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, valid, n, err := replayWALReader(data)
		if err != nil {
			t.Fatalf("replay returned error %v (must fold any byte stream)", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(data))
		}
		if len(s.tasks) > n {
			t.Fatalf("%d live tasks from %d records", len(s.tasks), n)
		}
		live := s.live()
		for i, wt := range live {
			if wt.ID == "" {
				t.Fatal("live task with empty id survived replay")
			}
			if i > 0 && live[i-1].seq >= wt.seq {
				t.Fatalf("live order not strictly seq-sorted at %d", i)
			}
		}

		// Compaction must be a replay fixpoint: one encode/replay round
		// canonicalizes whatever a hostile journal produced (e.g. negative
		// attempt counts), after which encode∘replay is the identity. A
		// journal this property does not hold for would mutate queue state
		// on every coordinator restart.
		c1 := encodeLive(s)
		s2, _, _, err := replayWALReader(c1)
		if err != nil {
			t.Fatalf("replaying compacted form: %v", err)
		}
		c2 := encodeLive(s2)
		s3, _, _, err := replayWALReader(c2)
		if err != nil {
			t.Fatalf("replaying canonical form: %v", err)
		}
		if c3 := encodeLive(s3); !bytes.Equal(c2, c3) {
			t.Fatalf("compaction not a fixpoint:\n round 2: %q\n round 3: %q", c2, c3)
		}
		if len(s2.tasks) != len(s.tasks) || len(s3.tasks) != len(s2.tasks) {
			t.Fatalf("live task count drifted across compaction rounds: %d, %d, %d",
				len(s.tasks), len(s2.tasks), len(s3.tasks))
		}
	})
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed fuzz seed corpus under testdata/fuzz")

// TestUpdateFuzzCorpus regenerates the committed seed corpus (in the Go
// fuzzing corpus-file encoding) so CI fuzz smoke runs start from real
// journal shapes even without a local fuzzing cache. Run with
// -update-corpus to rewrite.
func TestUpdateFuzzCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("run with -update-corpus to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzWALReplay")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range allWALSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
