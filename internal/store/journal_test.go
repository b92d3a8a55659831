package store

// The WAL used as a record journal, the way the job manager uses it:
// records are folded into live state by ReplayWAL, and compaction writes
// the fold's snapshot back. A toy JSON record stands in for the manager's.

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
)

// toyRec adds one key to a toy live set.
type toyRec struct {
	Op  string `json:"op"` // "add"
	Key int    `json:"key"`
}

// toyState is the fold target: the live keys, in insertion order.
type toyState struct{ live []int }

func (s *toyState) apply(payload []byte) {
	var r toyRec
	if json.Unmarshal(payload, &r) != nil {
		return
	}
	if r.Op == "add" {
		s.live = append(s.live, r.Key)
	}
}

func (s *toyState) snapshot(t *testing.T) [][]byte {
	t.Helper()
	out := make([][]byte, len(s.live))
	for i, k := range s.live {
		out[i] = toyPayload(t, "add", k)
	}
	return out
}

func toyPayload(t *testing.T, op string, key int) []byte {
	t.Helper()
	b, err := json.Marshal(toyRec{Op: op, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func openToy(t *testing.T, path string) (*WAL, *toyState, int64) {
	t.Helper()
	s := &toyState{}
	w, dropped, err := ReplayWAL(path, s.apply)
	if err != nil {
		t.Fatal(err)
	}
	return w, s, dropped
}

func TestJournalOpenMissingFile(t *testing.T) {
	w, s, dropped := openToy(t, filepath.Join(t.TempDir(), "sub", "fresh.wal"))
	defer w.Close()
	if w.Records() != 0 || dropped != 0 || len(s.live) != 0 {
		t.Fatalf("fresh journal replayed %d records (%d dropped) into %v", w.Records(), dropped, s.live)
	}
	if st := w.Stats(); st != (WALStats{Durable: true}) {
		t.Fatalf("fresh journal stats %+v", st)
	}
}

// TestJournalShortWriteRollsBack: a torn append is an error to the caller,
// counted, rolled back, and the next append lands directly after the last
// good record, so a replaying open folds both good records.
func TestJournalShortWriteRollsBack(t *testing.T) {
	for _, partial := range []int{0, 3, 11} {
		t.Run(fmt.Sprintf("partial-%d", partial), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.wal")
			w, _, _ := openToy(t, path)
			fw := &faultWriter{partialBytes: partial}
			w.hooks = &walHooks{writeFrame: fw.writeFrame}
			if err := w.Append(toyPayload(t, "add", 1)); err != nil {
				t.Fatal(err)
			}
			fw.armed = true
			if err := w.Append(toyPayload(t, "add", 2)); err == nil {
				t.Fatal("faulted append reported success")
			}
			fw.armed = false
			if err := w.Append(toyPayload(t, "add", 3)); err != nil {
				t.Fatalf("append after rollback: %v", err)
			}
			if st := w.Stats(); st.Appends != 2 || st.Errors != 1 {
				t.Fatalf("stats %+v, want 2 appends and 1 error", st)
			}
			w.Close()
			w2, s, dropped := openToy(t, path)
			n := w2.Records()
			w2.Close()
			if n != 2 || dropped != 0 || fmt.Sprint(s.live) != "[1 3]" {
				t.Fatalf("replay of %d records dropped %d bytes, folded %v; want [1 3] and nothing dropped", n, dropped, s.live)
			}
		})
	}
}

// TestJournalBrokenUntilCompacted: when even the rollback fails the journal
// refuses appends (ErrWALBroken) until compacting the fold's snapshot
// replaces the file.
func TestJournalBrokenUntilCompacted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	w, s, _ := openToy(t, path)
	defer w.Close()
	fw := &faultWriter{partialBytes: 5, closeFile: true, armed: true}
	w.hooks = &walHooks{writeFrame: fw.writeFrame}
	if err := w.Append(toyPayload(t, "add", 1)); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append with failed rollback: %v, want ErrWALBroken", err)
	}
	fw.armed = false
	if err := w.Append(toyPayload(t, "add", 2)); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append on broken journal: %v, want ErrWALBroken", err)
	}
	if err := w.Compact(s.snapshot(t)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(toyPayload(t, "add", 3)); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
	if st := w.Stats(); st.Errors != 2 || st.Appends != 1 || st.Compactions != 1 || w.Records() != 1 {
		t.Fatalf("%d records, stats %+v", w.Records(), st)
	}
	w2, s2, dropped := openToy(t, path)
	n := w2.Records()
	w2.Close()
	if n != 1 || dropped != 0 || fmt.Sprint(s2.live) != "[3]" {
		t.Fatalf("replay of %d records after compaction dropped %d bytes, folded %v; want [3]", n, dropped, s2.live)
	}
}
