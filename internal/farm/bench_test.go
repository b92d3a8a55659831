package farm_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/farm"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/workload"
)

// benchTrace records the benchmark workload once per process.
var benchTrace struct {
	data []byte
	sel  []byte
}

func benchSetup(b *testing.B) ([]byte, *bp.Config) {
	b.Helper()
	cfg := bp.DefaultConfig()
	if benchTrace.data == nil {
		var buf bytes.Buffer
		if err := tracefile.Record(&buf, workload.New("npb-is", 8, workload.WithScale(0.1))); err != nil {
			b.Fatal(err)
		}
		benchTrace.data = buf.Bytes()
	}
	return benchTrace.data, &cfg
}

// freshAnalysis loads the benchmark trace into a brand-new store (so no
// per-point artifacts carry over between iterations) and analyzes it.
func freshAnalysis(b *testing.B, data []byte, cfg *bp.Config) (*store.Store, string, *bp.Analysis, func()) {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	key, _, err := st.PutTrace(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	f, err := st.OpenTrace(key)
	if err != nil {
		b.Fatal(err)
	}
	a, err := bp.Analyze(f, *cfg)
	if err != nil {
		b.Fatal(err)
	}
	return st, key, a, func() { f.Close() }
}

// BenchmarkQueueEnqueueComplete measures the queue's bookkeeping cost per
// task — one enqueue, lease and complete round trip with a synthetic
// payload — with and without the write-ahead log, isolating what
// durability (three fsynced journal appends plus an artifact write per
// round) costs on the coordinator. The spread between the two is the
// number the bpserve -wal flag trades against crash recovery.
func BenchmarkQueueEnqueueComplete(b *testing.B) {
	// A well-formed content key; the queue never opens the trace for
	// bookkeeping, so no recording is needed.
	const key = "abababababababababababababababababababababababababababababababab"
	result, err := json.Marshal(bp.RegionResult{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"nowal", "wal"} {
		b.Run(mode, func(b *testing.B) {
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			var q *farm.Queue
			if mode == "wal" {
				q, _, err = farm.NewDurableQueue(st, farm.Config{}, filepath.Join(st.Root(), "farm.wal"))
				if err != nil {
					b.Fatal(err)
				}
			} else {
				q = farm.NewQueue(st, farm.Config{})
			}
			defer q.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Distinct regions keep every round a real task (no dedup
				// against earlier artifacts).
				if _, err := q.Enqueue(farm.Spec{TraceKey: key, Region: i, Sockets: 1, Warmup: "cold"}); err != nil {
					b.Fatal(err)
				}
				tasks := q.Lease("bench", 1)
				if len(tasks) != 1 {
					b.Fatal("no task leased")
				}
				if err := q.Complete("bench", tasks[0].ID, result); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatePointsLocal is the baseline: the in-process pool.
func BenchmarkSimulatePointsLocal(b *testing.B) {
	data, cfg := benchSetup(b)
	_, _, a, done := freshAnalysis(b, data, cfg)
	defer done()
	mc := bp.TableIMachine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.SimulatePoints(mc, bp.MRUWarmup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatePointsFarmed runs the same points through the full
// farm machinery — queue, leases, heartbeat bookkeeping, store-artifact
// uploads — with N in-process workers, reporting points/s and the scaling
// efficiency versus a single farmed worker (efficiency_N ≈
// throughput_N / (N · throughput_1) measured per run; the printed
// points/s across the N sub-benchmarks gives the scaling curve). Each
// iteration uses a fresh store so nothing is served from cache.
func BenchmarkSimulatePointsFarmed(b *testing.B) {
	data, cfg := benchSetup(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			mc := bp.TableIMachine(1)
			var points int
			var simulating time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st, key, a, done := freshAnalysis(b, data, cfg)
				q := farm.NewQueue(st, farm.Config{})
				ctx, cancel := context.WithCancel(context.Background())
				for w := 0; w < workers; w++ {
					go farm.RunLocalWorker(ctx, q, st, fmt.Sprintf("bench-%d", w))
				}
				b.StartTimer()

				iter := time.Now()
				res, err := a.SimulatePointsWith(farm.QueueRunner{Q: q, TraceKey: key}, mc, bp.MRUWarmup)
				if err != nil {
					b.Fatal(err)
				}
				simulating += time.Since(iter)
				points += len(res)

				b.StopTimer()
				cancel()
				q.Close()
				done()
				b.StartTimer()
			}
			b.ReportMetric(float64(points)/simulating.Seconds(), "points/s")
		})
	}
}

// BenchmarkFarmWorkerTasksOneTrace is one farm worker's share of an estimate
// when it gets the whole job (frozen since PR 16): the end-to-end benchmark's
// farm-estimate input — npb-ft, 8 threads, scale 0.5, mru — analyzed once,
// then per iteration the selection's points executed one task at a time in
// region order through one Executor, as bpworker -concurrency 1 would, over
// a cold replay cache. No queue, no RPC: trace open, prefix pass, snapshot
// replay and detailed simulation per task.
func BenchmarkFarmWorkerTasksOneTrace(b *testing.B) {
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, workload.New("npb-ft", 8, workload.WithScale(0.5))); err != nil {
		b.Fatal(err)
	}
	cfg := bp.DefaultConfig()
	st, key, a, done := freshAnalysis(b, buf.Bytes(), &cfg)
	done()
	points := a.BarrierPoints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec := farm.NewExecutor(st, bp.NewReplayCache(0))
		for _, pt := range points {
			if _, err := exec.Execute(farm.Task{TraceKey: key, Region: pt.Region, Sockets: 1, Warmup: "mru"}, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(points)), "tasks/op")
}
