package store

// Fault-injection tests for the store's durability paths: the WAL's
// append pipeline under short writes and I/O errors (via the walHooks
// seam), and the campaign manifest putters under concurrent writers and
// crash-left temp files. These prove the invariants the farm queue's
// recovery builds on: an acknowledged record is durable, a failed append
// never buries later records behind garbage, and a reader never observes
// a half-written value.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// faultWriter is a walHooks.writeFrame seam that, while armed, writes
// only the first partialBytes of the frame and then fails.
type faultWriter struct {
	mu           sync.Mutex
	armed        bool
	partialBytes int
	closeFile    bool // also close the file, so rollback fails too
	faults       int
}

func (fw *faultWriter) writeFrame(f *os.File, frame []byte) error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if !fw.armed {
		if _, err := f.Write(frame); err != nil {
			return err
		}
		return f.Sync()
	}
	fw.faults++
	if fw.partialBytes > 0 {
		n := fw.partialBytes
		if n > len(frame) {
			n = len(frame)
		}
		f.Write(frame[:n])
		f.Sync()
	}
	if fw.closeFile {
		f.Close()
	}
	return errors.New("injected write fault")
}

func TestWALShortWriteRollsBack(t *testing.T) {
	for _, partial := range []int{0, 3, 11} {
		t.Run(fmt.Sprintf("partial-%d", partial), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.wal")
			fw := &faultWriter{partialBytes: partial}
			w, err := OpenWAL(path)
			if err != nil {
				t.Fatal(err)
			}
			w.hooks = &walHooks{writeFrame: fw.writeFrame}
			if err := w.Append([]byte("before")); err != nil {
				t.Fatal(err)
			}
			fw.armed = true
			if err := w.Append([]byte("lost-to-fault")); err == nil {
				t.Fatal("faulted append reported success")
			}
			fw.armed = false
			// The failed append rolled back, so this record lands directly
			// after "before" — no garbage in between for replay to trip on.
			if err := w.Append([]byte("after")); err != nil {
				t.Fatalf("append after rollback: %v", err)
			}
			w.Close()
			recs, _ := replayAll(t, path)
			if len(recs) != 2 || string(recs[0]) != "before" || string(recs[1]) != "after" {
				t.Fatalf("replay = %q, want [before after]", recs)
			}
			if fw.faults != 1 {
				t.Fatalf("injected %d faults, want 1", fw.faults)
			}
		})
	}
}

func TestWALBrokenWhenRollbackFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	fw := &faultWriter{partialBytes: 5, closeFile: true}
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w.hooks = &walHooks{writeFrame: fw.writeFrame}
	if err := w.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	fw.armed = true
	err = w.Append([]byte("doomed"))
	if !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append with failed rollback: %v, want ErrWALBroken", err)
	}
	fw.armed = false
	if err := w.Append([]byte("refused")); !errors.Is(err, ErrWALBroken) {
		t.Fatalf("append on broken wal: %v, want ErrWALBroken", err)
	}

	// Reopening revalidates the tail: the torn frame is truncated away and
	// the good prefix survives.
	w2, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("recovered")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	recs, _ := replayAll(t, path)
	if len(recs) != 2 || string(recs[0]) != "good" || string(recs[1]) != "recovered" {
		t.Fatalf("replay after reopen = %q, want [good recovered]", recs)
	}
}

func TestPutCampaignConcurrentWriters(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		rounds  = 25
	)
	payload := func(w, r int) []byte {
		return []byte(fmt.Sprintf(`{"writer":%d,"round":%d,"pad":%q}`, w, r, strings.Repeat("x", 512)))
	}
	valid := make(map[string]bool)
	for w := 0; w < writers; w++ {
		for r := 0; r < rounds; r++ {
			valid[string(payload(w, r))] = true
		}
	}

	var wg sync.WaitGroup
	errc := make(chan error, writers*2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := st.PutCampaign("sweep", payload(w, r)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	// Concurrent readers must only ever observe complete values.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writers*rounds; i++ {
			b, err := st.GetCampaign("sweep")
			if errors.Is(err, ErrNotFound) {
				continue // nothing stored yet
			}
			if err != nil {
				errc <- err
				return
			}
			if !valid[string(b)] {
				errc <- fmt.Errorf("read a value no writer ever stored: %.60q...", b)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	b, err := st.GetCampaign("sweep")
	if err != nil {
		t.Fatal(err)
	}
	if !valid[string(b)] {
		t.Fatalf("final value was never written by any writer: %.60q", b)
	}
	// The atomic-rename discipline leaves no temp files behind.
	ents, err := os.ReadDir(filepath.Join(st.Root(), "campaigns"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".put-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

func TestCampaignIgnoresCrashedTempFile(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"state":"complete"}`)
	if err := st.PutCampaign("sweep", want); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer killed between CreateTemp and Rename: a partial
	// temp file sits beside the manifest.
	dir := filepath.Join(st.Root(), "campaigns")
	if err := os.WriteFile(filepath.Join(dir, ".put-1234"), []byte(`{"state":"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := st.GetCampaign("sweep")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("GetCampaign = %q, want %q", b, want)
	}
	names, err := st.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "sweep" {
		t.Fatalf("Campaigns = %v, want [sweep] (temp file must be invisible)", names)
	}
	// The temp file's name is not even addressable as a campaign.
	if _, err := st.GetCampaign(".put-1234"); err == nil {
		t.Fatal("GetCampaign accepted a temp-file name")
	}
}
