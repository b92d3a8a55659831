package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/store"
)

// journaledManager builds a manager with a fresh journal at path.
func journaledManager(t *testing.T, st *store.Store, path string) *Manager {
	t.Helper()
	m := New(st, 2, 0)
	if _, err := m.EnableJournal(path); err != nil {
		t.Fatal(err)
	}
	return m
}

// frameBoundaries returns every byte offset in a WAL file that lies on a
// record boundary, including 0 and the full length — the set of crash
// points a torn-tail truncation can leave behind.
func frameBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{0}
	for off := 0; off+8 <= len(raw); {
		size := int(binary.LittleEndian.Uint32(raw[off : off+4]))
		off += 8 + size
		if off > len(raw) {
			t.Fatalf("journal ends mid-frame at %d/%d", off, len(raw))
		}
		offs = append(offs, int64(off))
	}
	return offs
}

// TestJournalCrashPointRecovery is the tentpole's acceptance test: run
// journaled jobs to completion, then simulate a crash at every record
// boundary of the journal by replaying each prefix into a fresh manager
// over the same (warm) store. Every job whose submit record survived the
// crash must come back under its original ID with a byte-identical
// result; jobs whose submit record was lost never existed (the crash
// beat the 202).
func TestJournalCrashPointRecovery(t *testing.T) {
	st, key := newTestStore(t)
	jdir := t.TempDir()
	m := journaledManager(t, st, filepath.Join(jdir, "jobs.wal"))

	want := map[string]Snapshot{}
	for _, req := range []Request{
		{Kind: KindAnalyze, Trace: key},
		{Kind: KindEstimate, Trace: key, Warmup: "cold"},
	} {
		snap := submitAndWait(t, m, req)
		if snap.Status != StatusDone {
			t.Fatalf("%s job failed: %s", req.Kind, snap.Error)
		}
		want[snap.ID] = snap
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	full := filepath.Join(jdir, "jobs.wal")
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	bounds := frameBoundaries(t, full)
	if len(bounds) < 4 {
		t.Fatalf("journal holds only %d frames; expected a richer lifecycle", len(bounds)-1)
	}

	for i, cut := range bounds {
		prefix := filepath.Join(jdir, fmt.Sprintf("crash-%03d.wal", i))
		if err := os.WriteFile(prefix, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m2 := New(st, 2, 0)
		rec, err := m2.EnableJournal(prefix)
		if err != nil {
			t.Fatalf("crash point %d: %v", i, err)
		}
		present := 0
		for id, orig := range want {
			snap, ok := m2.Get(id)
			if !ok {
				continue // submit record was past the crash point
			}
			present++
			if !snap.Recovered && snap.Status != StatusDone {
				t.Errorf("crash point %d: job %s neither terminal nor marked recovered", i, id)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			got, err := m2.Wait(ctx, id)
			cancel()
			if err != nil {
				t.Fatalf("crash point %d: waiting for %s: %v", i, id, err)
			}
			if got.Status != StatusDone {
				t.Fatalf("crash point %d: job %s recovered as %s: %s", i, id, got.Status, got.Error)
			}
			if !bytes.Equal(got.Result, orig.Result) {
				t.Fatalf("crash point %d: job %s result differs after recovery", i, id)
			}
		}
		if got := rec.Resolved + rec.Requeued + rec.Terminal; got != present {
			t.Errorf("crash point %d: recovery accounted %d jobs, %d present", i, got, present)
		}
		// The store is warm, so nothing should ever need requeue-and-wait
		// at the last boundary: the full journal restores pure terminals.
		if i == len(bounds)-1 && rec.Terminal != len(want) {
			t.Errorf("full journal restored %d terminal jobs, want %d", rec.Terminal, len(want))
		}
		if err := m2.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalColdStoreRecomputes rebuilds from a journal holding only
// submit records against a store holding only the trace — the worst
// crash (no result artifacts survived). Every job must recompute through
// the normal pipeline and land byte-identical to the uninterrupted run.
func TestJournalColdStoreRecomputes(t *testing.T) {
	st, key := newTestStore(t)
	jdir := t.TempDir()
	m := journaledManager(t, st, filepath.Join(jdir, "jobs.wal"))
	reqs := []Request{
		{Kind: KindAnalyze, Trace: key},
		{Kind: KindEstimate, Trace: key, Warmup: "mru"},
	}
	want := map[string]Snapshot{}
	for _, req := range reqs {
		snap := submitAndWait(t, m, req)
		if snap.Status != StatusDone {
			t.Fatalf("%s job failed: %s", req.Kind, snap.Error)
		}
		want[snap.ID] = snap
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Keep only the submit records: the crash happened before any work.
	subs := filepath.Join(jdir, "submits.wal")
	w, err := store.OpenWAL(subs)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.Open(filepath.Join(jdir, "jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	_, _, err = store.ReplayJournal(full, func(rec json.RawMessage) {
		var jr journalRecord
		if err := json.Unmarshal(rec, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Op == jopSubmit {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Fresh store: same trace content → same key, zero artifacts.
	st2, key2 := newTestStore(t)
	if key2 != key {
		t.Fatalf("trace keys differ: %s vs %s", key2, key)
	}
	m2 := New(st2, 2, 0)
	rec, err := m2.EnableJournal(subs)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	if rec.Requeued != len(want) {
		t.Fatalf("cold recovery requeued %d jobs, want %d (%+v)", rec.Requeued, len(want), rec)
	}
	if m2.Stats().Recovered != int64(len(want)) {
		t.Fatalf("jobs_recovered = %d, want %d", m2.Stats().Recovered, len(want))
	}
	for id, orig := range want {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		got, err := m2.Wait(ctx, id)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != StatusDone {
			t.Fatalf("job %s recomputed as %s: %s", id, got.Status, got.Error)
		}
		if !got.Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
		if !bytes.Equal(got.Result, orig.Result) {
			t.Fatalf("job %s recomputed result differs from original", id)
		}
	}
}

// TestJournalShutdownOrdering proves the drain contract: after a clean
// Shutdown every job has a terminal journal record, so the next life
// restores pure terminal state with nothing to re-run.
func TestJournalShutdownOrdering(t *testing.T) {
	st, key := newTestStore(t)
	path := filepath.Join(t.TempDir(), "jobs.wal")
	m := journaledManager(t, st, path)
	snap := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "cold"})
	if snap.Status != StatusDone {
		t.Fatalf("job failed: %s", snap.Error)
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The journal must already hold the terminal record — no in-memory
	// state survives this point.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	state := &journalState{jobs: make(map[string]*job)}
	_, _, err = store.ReplayJournal(f, state.apply)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	jj, ok := state.jobs[snap.ID]
	if !ok || jj.Status != StatusDone {
		t.Fatalf("journal state after clean shutdown: %+v", jj)
	}
	// Appending after close must be refused, not crash.
	m.mu.Lock()
	if err := m.appendJournalLocked(journalRecord{Op: jopDone, ID: snap.ID}); err != nil {
		t.Errorf("append after close returned %v, want nil no-op", err)
	}
	m.mu.Unlock()

	m2 := New(st, 2, 0)
	rec, err := m2.EnableJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	if rec.Terminal != 1 || rec.Requeued != 0 || rec.Resolved != 0 {
		t.Fatalf("clean-shutdown journal recovered as %+v, want 1 terminal", rec)
	}
}

// TestJournalRecoveryConcurrentSubmitStress floods a recovering manager
// with concurrent submits — some identical to recovered jobs (they must
// coalesce onto the original IDs), some fresh — under the race detector.
func TestJournalRecoveryConcurrentSubmitStress(t *testing.T) {
	st, key := newTestStore(t)
	jdir := t.TempDir()

	// Craft a journal of live (never-finished) jobs directly.
	reqs := []Request{
		{Kind: KindAnalyze, Trace: key},
		{Kind: KindEstimate, Trace: key, Warmup: "cold"},
		{Kind: KindEstimate, Trace: key, Warmup: "mru"},
		{Kind: KindSimulate, Trace: key},
	}
	path := filepath.Join(jdir, "jobs.wal")
	w, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(reqs))
	for i := range reqs {
		ids[i] = fmt.Sprintf("job-%06d", i+1)
		req := reqs[i]
		b, err := json.Marshal(journalRecord{
			Op: jopSubmit, ID: ids[i], Req: &req,
			TraceID: fmt.Sprintf("trace-%d", i+1), CreatedNs: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	m := New(st, 2, 0)
	rec, err := m.EnableJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	if rec.Requeued != len(reqs) {
		t.Fatalf("requeued %d, want %d (%+v)", rec.Requeued, len(reqs), rec)
	}

	// Hammer the recovering manager: resubmits of the recovered requests
	// must dedup onto the recovered IDs, fresh requests get fresh IDs.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := reqs[g%len(reqs)]
			snap, err := m.Submit(req)
			if err != nil {
				errs <- err
				return
			}
			if want := ids[g%len(reqs)]; snap.ID != want {
				// Dedup coalesces onto live jobs only: if the workers already
				// finished the recovered job, an identical submit legitimately
				// mints a fresh job that completes from the cached artifacts.
				if got, ok := m.Get(want); !ok || got.Status != StatusDone {
					errs <- fmt.Errorf("resubmit of recovered request got id %s, want %s (status %s)", snap.ID, want, got.Status)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := m.Submit(Request{Kind: KindEstimate, Trace: key, Warmup: "mru+prev"}); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, snap := range m.Jobs() {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		got, err := m.Wait(ctx, snap.ID)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != StatusDone {
			t.Fatalf("job %s: %s: %s", got.ID, got.Status, got.Error)
		}
	}
	// Recovered jobs all ran: the gauge-backing counter saw each one.
	if got := m.Stats().Recovered; got != int64(len(reqs)) {
		t.Fatalf("jobs_recovered = %d, want %d", got, len(reqs))
	}
}

// TestJournalSubmitAfterRecoveryContinuesIDs proves a recovered manager
// never reissues an ID a previous life already acknowledged.
func TestJournalSubmitAfterRecoveryContinuesIDs(t *testing.T) {
	st, key := newTestStore(t)
	path := filepath.Join(t.TempDir(), "jobs.wal")
	m := journaledManager(t, st, path)
	first := submitAndWait(t, m, Request{Kind: KindAnalyze, Trace: key})
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	m2 := New(st, 2, 0)
	if _, err := m2.EnableJournal(path); err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	second := submitAndWait(t, m2, Request{Kind: KindEstimate, Trace: key, Warmup: "cold"})
	if second.ID == first.ID {
		t.Fatalf("recovered manager reissued id %s", first.ID)
	}
	if jobSeq(second.ID) <= jobSeq(first.ID) {
		t.Fatalf("id sequence went backwards: %s after %s", second.ID, first.ID)
	}
}

// TestRecoversParentWrittenJournal pins cross-version compatibility:
// testdata/parent-jobs.wal was written by the bpserve binary of the commit
// before the journal stopped recording progress (974eda0; the recipe is on
// farm's TestRecoversParentWrittenWAL). It holds a finished analyze
// (job-000001), an estimate that was still running (job-000002), and a
// simulate whose done record is the torn final frame (job-000003) — with
// the "running" and "stage" records this code no longer writes in between.
// All three must come back under their original IDs with the results an
// uninterrupted run produces, and new IDs must continue above them.
func TestRecoversParentWrittenJournal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-jobs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{`"op":"running"`, `"op":"stage"`} {
		if !bytes.Contains(raw, []byte(op)) {
			t.Fatalf("fixture holds no %s record; it no longer tests what it is for", op)
		}
	}

	// The reference: the same three requests, uninterrupted, on their own
	// store (same trace content, so the same key the fixture names).
	stRef, key := newTestStore(t)
	ref := New(stRef, 2, 0)
	defer ref.Shutdown(context.Background())
	want := map[string]Snapshot{
		"job-000001": submitAndWait(t, ref, Request{Kind: KindAnalyze, Trace: key}),
		"job-000002": submitAndWait(t, ref, Request{Kind: KindEstimate, Trace: key, Warmup: "cold"}),
		"job-000003": submitAndWait(t, ref, Request{Kind: KindSimulate, Trace: key}),
	}

	// The crashed coordinator's store held the trace and the analyze's
	// selection; the estimate and the simulate left nothing durable.
	st, _ := newTestStore(t)
	if _, _, _, err := AnalyzeCached(st, key, bp.DefaultConfig(), nil, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m := New(st, 2, 0)
	rec, err := m.EnableJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	if want := (JobRecovery{Records: 11, Dropped: 101, Requeued: 2, Terminal: 1}); rec != want {
		t.Fatalf("recovery = %+v, want %+v", rec, want)
	}
	if snap, ok := m.Get("job-000001"); !ok || snap.Status != StatusDone {
		t.Fatalf("job-000001 restored as %+v, want done without waiting", snap)
	}
	for id, orig := range want {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		got, err := m.Wait(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("waiting for %s: %v", id, err)
		}
		if got.Status != StatusDone || !got.Recovered || got.Request != orig.Request {
			t.Fatalf("%s recovered as %s (recovered=%v, request %+v): %s", id, got.Status, got.Recovered, got.Request, got.Error)
		}
		if !bytes.Equal(got.Result, orig.Result) {
			t.Fatalf("%s result differs from the uninterrupted run", id)
		}
	}
	if next := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "mru"}); next.ID != "job-000004" {
		t.Fatalf("first job after recovery is %s, want job-000004", next.ID)
	}
}

// TestAutoFallsBackMidRunWhenFarmFails covers the degradation seam: auto
// mode picks the farm (a live worker is registered), the farm then fails
// mid-job, and the job must complete locally — byte-identical to a pure
// local run — rather than fail.
func TestAutoFallsBackMidRunWhenFarmFails(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{})
	m := New(st, 1, 0)
	m.SetFarm(q)
	defer m.Shutdown(context.Background())

	// A registered (never-leasing) worker makes auto mode choose the
	// farm; closing the queue underneath makes every enqueue fail.
	q.Register("ghost-worker")
	q.Close()

	snap := submitAndWait(t, m, Request{Kind: KindEstimate, Trace: key, Warmup: "cold", Exec: ExecAuto})
	if snap.Status != StatusDone {
		t.Fatalf("auto job failed instead of falling back: %s", snap.Error)
	}
	if got := m.pipe.farmFallbacks.Load(); got != 1 {
		t.Fatalf("farm_fallbacks = %d, want 1", got)
	}
	if snap.Span == nil || snap.Span.Attrs["farm_fallback"] == "" {
		t.Fatal("fallback not recorded on the job span")
	}

	st2, key2 := newTestStore(t)
	m2 := New(st2, 1, 0)
	defer m2.Shutdown(context.Background())
	local := submitAndWait(t, m2, Request{Kind: KindEstimate, Trace: key2, Warmup: "cold", Exec: ExecLocal})
	if !bytes.Equal(snap.Result, local.Result) {
		t.Fatal("fallback result differs from pure local execution")
	}
}
