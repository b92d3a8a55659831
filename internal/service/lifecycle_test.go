package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"barrierpoint/internal/fault"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
)

// The tests in this file run the job lifecycle (manager.go, journal.go)
// alone: the two calls into the pipeline are stubs, the store holds no trace
// and nothing is profiled or simulated. stubTrace is a well-formed key no
// trace is stored under — the lifecycle only ever reads artifacts by name.
var stubTrace = strings.Repeat("ab", 32)

// stubbedManager returns a manager over an empty store whose plan accepts any
// request but one with signature "bad" (dedup key and artifact name derive
// from the signature alone), and whose compute reports each job it starts on
// started, then blocks until release yields (close it to let everything run).
func stubbedManager(t *testing.T, workers, depth int) (m *Manager, started chan string, release chan struct{}) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m = New(st, workers, depth)
	started, release = make(chan string, 64), make(chan struct{})
	m.plan = func(req Request) (plan, error) {
		if req.Signature == "bad" {
			return plan{}, errors.New("stub: bad request")
		}
		return plan{kind: req.Kind, trace: req.Trace, dedup: "dedup-" + req.Signature, artifact: "stub-" + req.Signature + ".json"}, nil
	}
	m.compute = func(p plan, span *obs.Span) (json.RawMessage, bool, error) {
		started <- p.artifact
		<-release
		return json.RawMessage(`"computed ` + p.artifact + `"`), false, nil
	}
	t.Cleanup(func() { m.Shutdown(context.Background()) })
	return m, started, release
}

func stubReq(sig string) Request {
	return Request{Kind: KindEstimate, Trace: stubTrace, Signature: sig}
}

func waitDone(t *testing.T, m *Manager, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	snap, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatalf("waiting for %s: %v", id, err)
	}
	return snap
}

func TestLifecycleCoalescesInflightRequests(t *testing.T) {
	m, started, release := stubbedManager(t, 2, 0)
	first, err := m.Submit(stubReq("a"))
	if err != nil {
		t.Fatal(err)
	}
	<-started // running, not just queued: both states coalesce
	again, err := m.Submit(stubReq("a"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := m.Submit(stubReq("b"))
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != first.ID || other.ID == first.ID {
		t.Fatalf("ids %s, %s, %s: want the identical request on the first job and the other on its own", first.ID, again.ID, other.ID)
	}
	if m.submitted.Load() != 2 || m.deduped.Load() != 1 {
		t.Fatalf("%d submitted, %d deduped; want 2 and 1", m.submitted.Load(), m.deduped.Load())
	}
	close(release)
	if snap := waitDone(t, m, first.ID); snap.Status != StatusDone || string(snap.Result) != `"computed stub-a.json"` {
		t.Fatalf("job finished as %+v", snap)
	}
	// Terminal jobs leave the in-flight set: the same request is a new job.
	if next, err := m.Submit(stubReq("a")); err != nil || next.ID == first.ID {
		t.Fatalf("resubmission after completion: %+v, %v", next, err)
	}
}

func TestLifecycleBusyBeforeJournal(t *testing.T) {
	m, started, release := stubbedManager(t, 1, 1)
	if _, err := m.EnableJournal(filepath.Join(t.TempDir(), "jobs.wal")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(stubReq("a")); err != nil {
		t.Fatal(err)
	}
	<-started // the one worker holds a; the one queue slot is free again
	if _, err := m.Submit(stubReq("b")); err != nil {
		t.Fatal(err)
	}
	before := m.JournalStats()
	if _, err := m.Submit(stubReq("c")); !errors.Is(err, ErrBusy) {
		t.Fatalf("third submit: %v, want ErrBusy", err)
	}
	if after := m.JournalStats(); after != before || before.Appends != 2 {
		t.Fatalf("journal moved on a rejected submit: %+v -> %+v", before, after)
	}
	close(release)
	<-started
	waitDone(t, m, "job-000002")
	// The rejected request consumed no ID.
	if next, err := m.Submit(stubReq("c")); err != nil || next.ID != "job-000003" {
		t.Fatalf("submit after the queue drained: %+v, %v", next, err)
	}
}

func TestLifecyclePruneKeepsLiveJobs(t *testing.T) {
	m, _, _ := stubbedManager(t, 1, 0)
	m.mu.Lock()
	defer m.mu.Unlock()
	const extra = 6
	for i := 0; i < maxRetained+extra; i++ {
		j := &job{Snapshot: Snapshot{ID: fmt.Sprintf("job-%06d", i+1), Status: StatusDone}}
		switch i { // the two oldest are still live
		case 0:
			j.Status = StatusQueued
		case 1:
			j.Status = StatusRunning
		}
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
	}
	m.pruneLocked()
	if len(m.jobs) != maxRetained || len(m.order) != maxRetained {
		t.Fatalf("retained %d jobs in an order of %d, want %d", len(m.jobs), len(m.order), maxRetained)
	}
	for _, id := range []string{"job-000001", "job-000002"} {
		if _, ok := m.jobs[id]; !ok {
			t.Errorf("live job %s was pruned", id)
		}
	}
	// The oldest terminal jobs made room instead.
	for i := 2; i < 2+extra; i++ {
		if id := fmt.Sprintf("job-%06d", i+1); m.jobs[id] != nil {
			t.Errorf("terminal job %s outlived the retention bound", id)
		}
	}
	if m.order[0] != "job-000001" || m.order[1] != "job-000002" || m.order[2] != fmt.Sprintf("job-%06d", 2+extra+1) {
		t.Errorf("order after prune starts %v", m.order[:3])
	}
}

func TestLifecycleFailedSubmitAppendLeavesNoTrace(t *testing.T) {
	m, started, release := stubbedManager(t, 1, 0)
	close(release)
	if _, err := m.EnableJournal(filepath.Join(t.TempDir(), "jobs.wal")); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	if err := fault.Configure("store.wal.append:n=1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(stubReq("a")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("submit with a failing journal: %v, want the injected error", err)
	}
	m.mu.Lock()
	seq, jobs, order, inflight, queued := m.seq, len(m.jobs), len(m.order), len(m.inflight), len(m.queue)
	m.mu.Unlock()
	if seq != 0 || jobs != 0 || order != 0 || inflight != 0 || queued != 0 {
		t.Fatalf("failed submit left seq=%d jobs=%d order=%d inflight=%d queued=%d", seq, jobs, order, inflight, queued)
	}
	if m.submitted.Load() != 0 {
		t.Fatalf("failed submit counted: %d submitted", m.submitted.Load())
	}
	select {
	case a := <-started:
		t.Fatalf("a job the journal refused ran anyway (%s)", a)
	default:
	}
	// The journal works again: the same request is accepted under the ID the
	// failed one would have had.
	snap, err := m.Submit(stubReq("a"))
	if err != nil || snap.ID != "job-000001" {
		t.Fatalf("submit after the fault cleared: %+v, %v", snap, err)
	}
	waitDone(t, m, snap.ID)
}

// TestLifecycleRecoveryTaxonomy replays a hand-built journal: one job of
// every recovery class, told apart by nothing but journal records, the stub
// plan's verdict and which result artifacts the store holds.
func TestLifecycleRecoveryTaxonomy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	w, err := store.OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(n int, sig string) journalRecord {
		req := stubReq(sig)
		return journalRecord{Op: jopSubmit, ID: fmt.Sprintf("job-%06d", n), Req: &req, TraceID: fmt.Sprintf("trace-%d", n), CreatedNs: int64(n)}
	}
	for _, rec := range []journalRecord{
		submit(1, "done"), {Op: jopDone, ID: "job-000001", Artifact: "stub-done.json", FinishedNs: 10},
		submit(2, "failed"), {Op: jopFailed, ID: "job-000002", Error: "it broke", FinishedNs: 20},
		submit(3, "landed"),   // live; its artifact is in the store
		submit(4, "pending"),  // live; nothing stored
		submit(5, "bad"),      // live; no longer plans
		submit(6, "vanished"), // done on record, but the artifact is gone
		{Op: jopDone, ID: "job-000006", Artifact: "stub-vanished.json", Cached: true, FinishedNs: 60},
		submit(7, "pending"), // live twin of job 4: only a damaged journal holds one
	} {
		if b, _ := json.Marshal(rec); w.Append(b) != nil {
			t.Fatal("append failed")
		}
	}
	w.Close()

	m, started, release := stubbedManager(t, 2, 0)
	close(release)
	for _, sig := range []string{"done", "landed"} {
		if err := m.st.PutArtifact(stubTrace, "stub-"+sig+".json", []byte(`"stored `+sig+`"`)); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := m.EnableJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := (JobRecovery{Records: 10, Terminal: 2, Resolved: 1, Requeued: 2, Unrecoverable: 2}); rec != want {
		t.Fatalf("recovery = %+v, want %+v", rec, want)
	}
	if m.recovered.Load() != 5 {
		t.Errorf("jobs_recovered = %d, want 5 (terminal + resolved + requeued)", m.recovered.Load())
	}
	for _, want := range []struct {
		id, result, errPart string
		status              Status
		cached              bool
	}{
		{"job-000001", `"stored done"`, "", StatusDone, false},
		{"job-000002", ``, "it broke", StatusFailed, false},
		{"job-000003", `"stored landed"`, "", StatusDone, true},
		{"job-000004", `"computed stub-pending.json"`, "", StatusDone, false},
		{"job-000005", ``, "not recoverable after restart: stub: bad request", StatusFailed, false},
		{"job-000006", `"computed stub-vanished.json"`, "", StatusDone, false},
		{"job-000007", ``, "duplicate of recovered job job-000004", StatusFailed, false},
	} {
		got := waitDone(t, m, want.id)
		if got.Status != want.status || got.Cached != want.cached || !got.Recovered ||
			!bytes.Equal(got.Result, []byte(want.result)) || !strings.Contains(got.Error, want.errPart) {
			t.Errorf("%s recovered as %s cached=%v recovered=%v result=%s error=%q", want.id, got.Status, got.Cached, got.Recovered, got.Result, got.Error)
		}
		if got.TraceID != "trace-"+strings.TrimLeft(strings.TrimPrefix(want.id, "job-"), "0") {
			t.Errorf("%s came back with trace ID %q", want.id, got.TraceID)
		}
	}
	// Exactly the two requeued jobs were computed.
	ran := map[string]bool{<-started: true, <-started: true}
	if !ran["stub-pending.json"] || !ran["stub-vanished.json"] || len(started) != 0 {
		t.Errorf("computed after recovery: %v (+%d more)", ran, len(started))
	}
	if next, err := m.Submit(stubReq("new")); err != nil || next.ID != "job-000008" {
		t.Fatalf("first job after recovery: %+v, %v", next, err)
	}
}

// TestPipelineAloneMatchesSubmit runs the other half alone: plan and run on
// a stored trace with no Manager, against the same requests through Submit
// on a separate store.
func TestPipelineAloneMatchesSubmit(t *testing.T) {
	st, key := newTestStore(t)
	pl := newPipeline(st, obs.NewRegistry())
	stRef, _ := newTestStore(t)
	ref := New(stRef, 2, 0)
	defer ref.Shutdown(context.Background())
	for _, req := range []Request{
		{Kind: KindEstimate, Trace: key, Warmup: "mru"},
		{Kind: KindAnalyze, Trace: key, Signature: "bbv"},
		{Kind: KindSimulate, Trace: key},
	} {
		p, err := pl.plan(req)
		if err != nil {
			t.Fatal(err)
		}
		span := obs.NewSpan("alone", string(req.Kind))
		got, cached, err := pl.run(p, span)
		if err != nil || cached {
			t.Fatalf("%s alone: cached=%v err=%v", req.Kind, cached, err)
		}
		want := submitAndWait(t, ref, req)
		if want.Status != StatusDone || !bytes.Equal(got, want.Result) {
			t.Errorf("%s: pipeline alone produced\n%s\nSubmit produced (%s)\n%s", req.Kind, got, want.Status, want.Result)
		}
		if stored, err := st.GetArtifact(key, p.artifact); err != nil || !bytes.Equal(stored, got) {
			t.Errorf("%s: artifact %s holds %q (%v), want the returned bytes", req.Kind, p.artifact, stored, err)
		}
		if _, cached, err := pl.run(p, nil); err != nil || !cached {
			t.Errorf("%s again: cached=%v err=%v, want a store hit", req.Kind, cached, err)
		}
		if len(span.Data().Stages) == 0 {
			t.Errorf("%s: run recorded no stage on its span", req.Kind)
		}
	}
	if n := pl.coldAnalyses.Load(); n != 2 { // combine for the estimate, bbv for the analyze
		t.Errorf("cold analyses = %d, want 2", n)
	}
}
