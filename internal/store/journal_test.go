package store

// The journal's mechanics, tested once over a toy record type: the farm
// queue's and the job manager's suites then only have to test their own
// folds and snapshots.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// toyRec adds or retires one key of a toy live set.
type toyRec struct {
	Op  string `json:"op"` // "add" or "retire"
	Key int    `json:"key"`
}

// toyState is the fold target: the live keys, in insertion order.
type toyState struct{ live []int }

func (s *toyState) apply(r toyRec) {
	switch r.Op {
	case "add":
		s.live = append(s.live, r.Key)
	case "retire":
		for i, k := range s.live {
			if k == r.Key {
				s.live = append(s.live[:i], s.live[i+1:]...)
				break
			}
		}
	}
}

func (s *toyState) snapshot() []toyRec {
	out := make([]toyRec, len(s.live))
	for i, k := range s.live {
		out[i] = toyRec{Op: "add", Key: k}
	}
	return out
}

func openToy(t *testing.T, path string) (*Journal[toyRec], *toyState, JournalReplay) {
	t.Helper()
	s := &toyState{}
	j, rep, err := OpenJournal(path, s.apply)
	if err != nil {
		t.Fatal(err)
	}
	return j, s, rep
}

func TestJournalOpenMissingFile(t *testing.T) {
	j, s, rep := openToy(t, filepath.Join(t.TempDir(), "sub", "fresh.wal"))
	defer j.Close()
	if rep != (JournalReplay{}) || len(s.live) != 0 {
		t.Fatalf("fresh journal replayed %+v into %v", rep, s.live)
	}
	if st := j.Stats(); st != (JournalStats{Durable: true}) {
		t.Fatalf("fresh journal stats %+v", st)
	}
}

// TestJournalReplayEveryPrefix cuts a journal at every byte offset — every
// frame boundary and every position inside a frame — and checks that
// reopening recovers exactly the records wholly before the cut, reports the
// rest as dropped, and appends cleanly after it.
func TestJournalReplayEveryPrefix(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	j, _, _ := openToy(t, full)
	const n = 6
	bounds := []int64{0}
	for i := 0; i < n; i++ {
		if err := j.Append(toyRec{Op: "add", Key: i}); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, j.Stats().Bytes)
	}
	j.Close()
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != bounds[n] {
		t.Fatalf("file is %d bytes, journal says %d", len(raw), bounds[n])
	}
	for cut := 0; cut <= len(raw); cut++ {
		whole := 0
		for whole < n && bounds[whole+1] <= int64(cut) {
			whole++
		}
		path := filepath.Join(dir, fmt.Sprintf("cut-%04d.wal", cut))
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, s, rep := openToy(t, path)
		want := JournalReplay{Records: whole, Dropped: int64(cut) - bounds[whole]}
		if rep != want {
			t.Fatalf("cut %d: replay %+v, want %+v", cut, rep, want)
		}
		if len(s.live) != whole {
			t.Fatalf("cut %d: folded %v, want keys 0..%d", cut, s.live, whole-1)
		}
		if err := j.Append(toyRec{Op: "add", Key: 100}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		j.Close()
		j2, s2, rep2 := openToy(t, path)
		j2.Close()
		if rep2 != (JournalReplay{Records: whole + 1}) || s2.live[whole] != 100 {
			t.Fatalf("cut %d: after append replay %+v folded %v", cut, rep2, s2.live)
		}
	}
}

// TestJournalSkipsForeignFrames: an intact frame whose payload is not a
// record is counted and skipped without hiding its neighbours — on open and
// at reader level.
func TestJournalSkipsForeignFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{`{"op":"add","key":1}`, "not json at all", `{"op":"add","key":2}`, `[1,2]`, `{"op":"add","key":3}`} {
		if err := w.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	j, s, rep := openToy(t, path)
	j.Close()
	if rep != (JournalReplay{Records: 5}) || fmt.Sprint(s.live) != "[1 2 3]" {
		t.Fatalf("replay %+v folded %v, want 5 frames and keys [1 2 3]", rep, s.live)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &toyState{}
	valid, n, err := ReplayJournal(bytes.NewReader(raw), s2.apply)
	if err != nil || valid != int64(len(raw)) || n != 5 || fmt.Sprint(s2.live) != "[1 2 3]" {
		t.Fatalf("reader replay: valid %d n %d err %v folded %v", valid, n, err, s2.live)
	}
}

// TestJournalShortWriteRollsBack: a torn append is an error to the caller,
// counted, rolled back, and the next append lands directly after the last
// good record.
func TestJournalShortWriteRollsBack(t *testing.T) {
	for _, partial := range []int{0, 3, 11} {
		t.Run(fmt.Sprintf("partial-%d", partial), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.wal")
			j, _, _ := openToy(t, path)
			fw := &faultWriter{partialBytes: partial}
			j.w.hooks = &walHooks{writeFrame: fw.writeFrame}
			if err := j.Append(toyRec{Op: "add", Key: 1}); err != nil {
				t.Fatal(err)
			}
			fw.armed = true
			if err := j.Append(toyRec{Op: "add", Key: 2}); err == nil {
				t.Fatal("faulted append reported success")
			}
			fw.armed = false
			if err := j.Append(toyRec{Op: "add", Key: 3}); err != nil {
				t.Fatalf("append after rollback: %v", err)
			}
			if st := j.Stats(); st.Appends != 2 || st.Errors != 1 {
				t.Fatalf("stats %+v, want 2 appends and 1 error", st)
			}
			j.Close()
			j2, s, rep := openToy(t, path)
			j2.Close()
			if rep != (JournalReplay{Records: 2}) || fmt.Sprint(s.live) != "[1 3]" {
				t.Fatalf("replay %+v folded %v, want [1 3] and nothing dropped", rep, s.live)
			}
		})
	}
}

// TestJournalBrokenUntilCompacted: when even the rollback fails the journal
// refuses appends (ErrWALBroken) until a compaction replaces the file.
func TestJournalBrokenUntilCompacted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	j, s, _ := openToy(t, path)
	defer j.Close()
	fw := &faultWriter{partialBytes: 5, closeFile: true, armed: true}
	j.w.hooks = &walHooks{writeFrame: fw.writeFrame}
	if err := j.Append(toyRec{Op: "add", Key: 1}); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append with failed rollback: %v, want ErrWALBroken", err)
	}
	fw.armed = false
	if err := j.Append(toyRec{Op: "add", Key: 2}); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append on broken journal: %v, want ErrWALBroken", err)
	}
	if err := j.Compact(s.snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(toyRec{Op: "add", Key: 3}); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	if st := j.Stats(); st.Errors != 2 || st.Appends != 1 || st.Compactions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestJournalCompactionFixpointAndBound churns 10⁴ add/retire pairs
// through a small live set, compacting whenever the journal says it has
// grown: the file must stay bounded by the live state, and compacting an
// already-compact journal must not change a byte.
func TestJournalCompactionFixpointAndBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "churn.wal")
	j, s, _ := openToy(t, path)
	// The policy under test is growth, not durability: skip the fsyncs.
	j.w.hooks = &walHooks{writeFrame: func(f *os.File, frame []byte) error {
		_, err := f.Write(frame)
		return err
	}}
	const window = 8 // live keys at any time
	frame := int64(8 + len(`{"op":"retire","key":10000}`))
	var maxBytes int64
	put := func(r toyRec) {
		t.Helper()
		if err := j.AppendLive(r, len(s.live), s.snapshot); err != nil {
			t.Fatal(err)
		}
		s.apply(r)
		maxBytes = max(maxBytes, j.Stats().Bytes)
	}
	for i := 0; i < 10000; i++ {
		put(toyRec{Op: "add", Key: i})
		if i >= window {
			put(toyRec{Op: "retire", Key: i - window})
		}
	}
	st := j.Stats()
	if st.Compactions < 10 {
		t.Fatalf("only %d compactions over %d appends", st.Compactions, st.Appends)
	}
	if bound := (journalCompactMinRecords + 1) * frame; maxBytes > bound {
		t.Fatalf("journal peaked at %d bytes, want <= %d (min-records threshold, live set of %d)", maxBytes, bound, window)
	}

	if err := j.Compact(s.snapshot()); err != nil {
		t.Fatal(err)
	}
	once, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, s2, rep := openToy(t, path)
	defer j2.Close()
	if rep.Records != len(s.live) || fmt.Sprint(s2.live) != fmt.Sprint(s.live) {
		t.Fatalf("compacted journal replays %+v to %v, want %v", rep, s2.live, s.live)
	}
	if err := j2.Compact(s2.snapshot()); err != nil {
		t.Fatal(err)
	}
	twice, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(once, twice) {
		t.Fatalf("compaction is not a replay fixpoint:\n once:  %q\n twice: %q", once, twice)
	}
}

// TestJournalClosedAndNilRecordNothing pins the no-second-code-path
// contract: a closed journal and a nil one accept every call and write
// nothing.
func TestJournalClosedAndNilRecordNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	j, _, _ := openToy(t, path)
	if err := j.Append(toyRec{Op: "add", Key: 1}); err != nil {
		t.Fatal(err)
	}
	before := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(toyRec{Op: "add", Key: 2}); err != nil {
		t.Errorf("append after close: %v, want nil no-op", err)
	}
	if err := j.Compact(nil); err != nil {
		t.Errorf("compact after close: %v, want nil no-op", err)
	}
	if j.grown(0) {
		t.Error("closed journal asks for compaction")
	}
	if err := j.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if after := j.Stats(); after != before {
		t.Errorf("stats moved after close: %+v -> %+v", before, after)
	}
	j2, s, rep := openToy(t, path)
	j2.Close()
	if rep != (JournalReplay{Records: 1}) || fmt.Sprint(s.live) != "[1]" {
		t.Fatalf("closed journal wrote to disk: replay %+v folded %v", rep, s.live)
	}

	var none *Journal[toyRec]
	none.SetObserver(nil)
	if err := none.Append(toyRec{}); err != nil {
		t.Errorf("nil append: %v", err)
	}
	if err := none.Compact(nil); err != nil {
		t.Errorf("nil compact: %v", err)
	}
	if none.grown(0) || none.Close() != nil || none.Stats() != (JournalStats{}) {
		t.Errorf("nil journal is not inert: stats %+v", none.Stats())
	}
}
