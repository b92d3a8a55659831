package farm_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// putTrace records a workload at scale 0.05 into st and returns its key.
func putTrace(t testing.TB, st *store.Store, name string, threads int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New(name, threads, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// freshPoints answers "what does bp.SimulatePoint say": each distinct task
// of one point is simulated once, on a trace file opened for it and closed
// after, with its own prefix pass from region 0.
type freshPoints struct {
	st   *store.Store
	seen map[farm.Task][]bp.RegionResult
}

func (fp *freshPoints) want(t *testing.T, tk farm.Task) []bp.RegionResult {
	t.Helper()
	if res, ok := fp.seen[tk]; ok {
		return res
	}
	mode, err := bp.ParseWarmup(tk.Warmup)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fp.st.OpenTrace(tk.TraceKey)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := bp.SimulatePoint(f, tk.Region, bp.TableIMachine(tk.Sockets), mode)
	if err != nil {
		t.Fatal(err)
	}
	if fp.seen == nil {
		fp.seen = make(map[farm.Task][]bp.RegionResult)
	}
	fp.seen[tk] = []bp.RegionResult{res}
	return fp.seen[tk]
}

// TestExecutorPassRule walks one Executor through every branch of the pass
// rule with the counters it must show after each task, then through a
// shuffled interleaving of two traces and two socket counts checked against
// the rule written out independently. Every result must == a fresh
// bp.SimulatePoint; the Executor opens and closes the trace file per task,
// so nothing but the pass carries over.
func TestExecutorPassRule(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := putTrace(t, st, "npb-ft", 8), putTrace(t, st, "npb-is", 8)
	c := putTrace(t, st, "npb-cg", 16) // 16 threads: a 2-socket machine
	fresh := &freshPoints{st: st}
	exec := farm.NewExecutor(st)

	steps := []struct {
		task    farm.Task
		wantErr bool
		after   farm.PassStats
		from    string // prefix_from on the span; "" = pass untouched
	}{
		{farm.Task{TraceKey: a, Region: 3, Sockets: 1, Warmup: "mru"}, false, farm.PassStats{Resumed: 0, Restarted: 1, Regions: 3}, "0"},              // first use
		{farm.Task{TraceKey: a, Region: 3, Sockets: 1, Warmup: "mru+prev"}, false, farm.PassStats{Resumed: 1, Restarted: 1, Regions: 3}, "3"},         // at Pos: nothing to track
		{farm.Task{TraceKey: a, Region: 5, Sockets: 1, Warmup: "mru"}, false, farm.PassStats{Resumed: 2, Restarted: 1, Regions: 5}, "3"},              // ahead: advance
		{farm.Task{TraceKey: a, Region: 2, Sockets: 1, Warmup: "cold"}, false, farm.PassStats{Resumed: 2, Restarted: 1, Regions: 5}, ""},              // cold never touches it
		{farm.Task{TraceKey: a, Region: 4, Sockets: 1, Warmup: "mru"}, false, farm.PassStats{Resumed: 2, Restarted: 2, Regions: 9}, "0"},              // behind: fresh pass
		{farm.Task{TraceKey: b, Region: 2, Sockets: 1, Warmup: "mru"}, false, farm.PassStats{Resumed: 2, Restarted: 3, Regions: 11}, "0"},             // other trace
		{farm.Task{TraceKey: c, Region: 3, Sockets: 2, Warmup: "mru"}, false, farm.PassStats{Resumed: 2, Restarted: 4, Regions: 14}, "0"},             // other trace and machine
		{farm.Task{TraceKey: c, Region: 6, Sockets: 2, Warmup: "mru+prev"}, false, farm.PassStats{Resumed: 3, Restarted: 4, Regions: 17}, "3"},        // mru and mru+prev share snapshots
		{farm.Task{TraceKey: c, Region: 7, Sockets: 1, Warmup: "mru"}, true, farm.PassStats{Resumed: 3, Restarted: 4, Regions: 17}, ""},               // 16 threads on 8 cores
		{farm.Task{TraceKey: c, Region: 9999, Sockets: 2, Warmup: "mru"}, true, farm.PassStats{Resumed: 3, Restarted: 4, Regions: 17}, ""},            // past the trace
		{farm.Task{TraceKey: c, Region: 7, Sockets: 2, Warmup: "mru"}, false, farm.PassStats{Resumed: 4, Restarted: 4, Regions: 18}, "6"},             // failed tasks left the pass alone
		{farm.Task{TraceKey: c, Region: 7, Sockets: 2, Warmup: "bogus"}, true, farm.PassStats{Resumed: 4, Restarted: 4, Regions: 18}, ""},             // unknown mode
		{farm.Task{TraceKey: a[:60] + "0000", Region: 1, Sockets: 1, Warmup: "mru"}, true, farm.PassStats{Resumed: 4, Restarted: 4, Regions: 18}, ""}, // trace not in the store
	}
	for i, s := range steps {
		span := obs.NewSpan("", "farm-task")
		got, err := exec.Execute(s.task, span)
		if (err != nil) != s.wantErr {
			t.Fatalf("step %d: err = %v, want error %v", i, err, s.wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, fresh.want(t, s.task)) {
			t.Errorf("step %d: result differs from a fresh SimulatePoint", i)
		}
		if stats := exec.PassStats(); stats != s.after {
			t.Fatalf("step %d: pass stats %+v, want %+v", i, stats, s.after)
		}
		sd := span.Data()
		if err == nil && !slices.ContainsFunc(sd.Stages, func(st obs.Stage) bool { return st.Name == "point-detail" }) {
			t.Errorf("step %d (%s): span has no point-detail stage: %+v", i, s.task.Warmup, sd.Stages)
		}
		attrs := sd.Attrs
		if attrs["prefix_from"] != s.from || (s.from != "" && attrs["prefix_to"] == "") {
			t.Errorf("step %d: span attrs %v, want prefix_from %q", i, attrs, s.from)
		}
	}

	// Shuffled and interleaved: the rule, restated here, predicts the counters.
	var tasks []farm.Task
	for r := 0; r < 11; r++ {
		tasks = append(tasks,
			farm.Task{TraceKey: a, Region: 3 * r, Sockets: 1, Warmup: "mru"},
			farm.Task{TraceKey: b, Region: r, Sockets: 1, Warmup: "mru+prev"},
			farm.Task{TraceKey: c, Region: 4 * r, Sockets: 2, Warmup: "mru"})
	}
	rand.New(rand.NewSource(16)).Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	exec = farm.NewExecutor(st)
	var want farm.PassStats
	heldTrace, heldPos := "", 0
	for i, tk := range tasks {
		if tk.TraceKey == heldTrace && tk.Region >= heldPos {
			want.Resumed++
			want.Regions += uint64(tk.Region - heldPos)
		} else {
			want.Restarted++
			want.Regions += uint64(tk.Region)
		}
		heldTrace, heldPos = tk.TraceKey, tk.Region
		got, err := exec.Execute(tk, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, fresh.want(t, tk)) {
			t.Errorf("shuffled task %d (%+v): result differs from a fresh SimulatePoint", i, tk)
		}
	}
	if stats := exec.PassStats(); stats != want || want.Resumed == 0 || want.Restarted < 3 {
		t.Errorf("shuffled stream: pass stats %+v, want %+v with both branches taken", stats, want)
	}
}

// TestExecutorNeverWorseThanOnePassPerTask defeats the pass — two traces
// strictly alternating — and checks the cost is exactly the parent's: every
// task restarts, and the regions tracked equal the sum of the task regions,
// which is what one prefix pass per task tracks. The Executor has one pass
// slot, so each restart drops the pass it replaces.
func TestExecutorNeverWorseThanOnePassPerTask(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := putTrace(t, st, "npb-ft", 8), putTrace(t, st, "npb-is", 8)
	fresh := &freshPoints{st: st}
	exec := farm.NewExecutor(st)
	var n, sum uint64
	for r := 1; r < 11; r++ {
		for _, key := range []string{a, b} {
			tk := farm.Task{TraceKey: key, Region: r, Sockets: 1, Warmup: "mru"}
			got, err := exec.Execute(tk, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, fresh.want(t, tk)) {
				t.Errorf("%+v: result differs from a fresh SimulatePoint", tk)
			}
			n, sum = n+1, sum+uint64(r)
		}
	}
	if stats, want := exec.PassStats(), (farm.PassStats{Restarted: n, Regions: sum}); stats != want {
		t.Errorf("pass stats %+v, want %+v", stats, want)
	}
}

// TestExecutorShuffledBatchIsOnePass is a leased batch as cmd/bpworker runs
// it at -concurrency 4: the tasks of one trace in shuffled order are sorted
// by PassOrder, warmed serially, and simulated on four goroutines while
// later snapshots are still being taken. The whole batch costs one pass —
// one restart (the first use), regions tracked = the last region — and every
// result is SimulatePoint's. Run under -race.
func TestExecutorShuffledBatchIsOnePass(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := putTrace(t, st, "npb-ft", 8)
	fresh := &freshPoints{st: st}
	var batch []farm.Task
	for r := 0; r < 34; r += 3 {
		batch = append(batch, farm.Task{TraceKey: key, Region: r, Sockets: 1, Warmup: "mru"})
	}
	rand.New(rand.NewSource(4)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })

	exec := farm.NewExecutor(st)
	slices.SortFunc(batch, farm.PassOrder)
	results := make([][]bp.RegionResult, len(batch))
	sem := make(chan struct{}, 4) // the worker's -concurrency
	var wg sync.WaitGroup
	for i, tk := range batch {
		sem <- struct{}{}
		run, err := exec.Warm(tk, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if results[i], err = run(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, tk := range batch {
		if !reflect.DeepEqual(results[i], fresh.want(t, tk)) {
			t.Errorf("region %d: result differs from a fresh SimulatePoint", tk.Region)
		}
	}
	last := uint64(batch[len(batch)-1].Region)
	if stats, want := exec.PassStats(), (farm.PassStats{Resumed: uint64(len(batch)) - 1, Restarted: 1, Regions: last}); stats != want {
		t.Errorf("pass stats %+v, want %+v (exactly one pass)", stats, want)
	}
}

// TestLocalWorkerRecordsFailedTaskSpan: a task that fails on an in-process
// worker still leaves a finished farm-task span carrying the error — every
// outcome of RunLocalWorker's loop, simulation error and result-encoding
// error alike, leaves through the one Finish + Record.
func TestLocalWorkerRecordsFailedTaskSpan(t *testing.T) {
	st, key := newTestStore(t)
	q := farm.NewQueue(st, farm.Config{MaxAttempts: 1})
	defer q.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go farm.RunLocalWorker(ctx, q, st, "w")

	const traceID = "badc0ffeebadc0ff"
	tk, err := q.Enqueue(farm.Spec{TraceKey: key, Region: 9999, Sockets: 1, Warmup: "mru", TraceID: traceID})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := waitTicket(t, tk); err == nil {
		t.Fatal("out-of-range region simulated")
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(q.WorkerSpans().ByTrace(traceID)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failed task left no span")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sp := q.WorkerSpans().ByTrace(traceID)[0]
	if sp.End.IsZero() || sp.Attrs["error"] == "" {
		t.Errorf("failed task's span not finished with its error: %+v", sp)
	}
}

// TestExecutorPassRestartsAfterDecodeError: a warm task whose advance hits a
// chunk that does not decode fails, and the pass it held, half advanced,
// is back at region 0: the next warm task of the trace resumes it from
// there, tracking its prefix afresh, rather than from where the failed
// advance stopped.
func TestExecutorPassRestartsAfterDecodeError(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := putTrace(t, st, "npb-ft", 8)
	fresh := &freshPoints{st: st}
	exec := farm.NewExecutor(st)
	task := func(region int) farm.Task {
		return farm.Task{TraceKey: key, Region: region, Sockets: 1, Warmup: "mru"}
	}
	if _, err := exec.Execute(task(2), nil); err != nil {
		t.Fatal(err)
	}
	want := fresh.want(t, task(2))
	path, err := st.TracePath(key)
	if err != nil {
		t.Fatal(err)
	}
	corruptChunk(t, path, 3)
	if res, err := exec.Execute(task(5), nil); err == nil {
		t.Fatalf("a pass over a corrupt chunk returned %+v, and no error", res)
	}
	got, err := exec.Execute(task(2), nil)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("region 2 after the failure: %+v, %v; want %+v", got, err, want)
	}
	if stats, want := exec.PassStats(), (farm.PassStats{Restarted: 1, Resumed: 1, Regions: 4}); stats != want {
		t.Errorf("pass stats %+v, want %+v: the failed pass did not start over", stats, want)
	}
}

// corruptChunk sets the continuation bit on the last byte of the chunk of
// (region, thread 0) of the trace file at path, in place: the framing holds,
// and the chunk's last varint runs off its end.
func corruptChunk(t *testing.T, path string, region int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(data[8:]) // past the magic: the streaming header
	nameLen, _ := binary.ReadUvarint(r)
	r.Seek(int64(nameLen), io.SeekCurrent)
	threads, _ := binary.ReadUvarint(r)
	binary.ReadUvarint(r) // regions
	r.ReadByte()          // flags
	for c := 0; c <= region*int(threads); c++ {
		n, _ := binary.ReadUvarint(r)
		r.Seek(int64(n), io.SeekCurrent)
	}
	end := len(data) - r.Len()
	if err := os.Chmod(path, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{data[end-1] | 0x80}, int64(end-1)); err != nil {
		t.Fatal(err)
	}
}
