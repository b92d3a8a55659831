// Service example: the analysis service driven in-process — a recorded
// trace is uploaded into a content-addressed store, async jobs analyze it and
// estimate runtimes for both warmup modes, and a repeat analyze
// demonstrates the cache hit (no re-profiling).
//
//	go run ./examples/service
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	bp "barrierpoint"
	"barrierpoint/internal/service"
	"barrierpoint/internal/store"
	"barrierpoint/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "bpstore-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Record a workload and upload it the way bpserve's POST /v1/traces
	//    does: the ingest pass checks every chunk, profiles every region as
	//    the bytes stream through, and files the trace under its content key.
	prog := workload.New("npb-ft", 8, workload.WithScale(0.2))
	tracePath := filepath.Join(dir, "ft.bptrace")
	if err := bp.SaveTrace(tracePath, prog); err != nil {
		log.Fatal(err)
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		log.Fatal(err)
	}
	mgr := service.New(st, 0, 0)
	defer mgr.Shutdown(context.Background())
	f, err := os.Open(tracePath)
	if err != nil {
		log.Fatal(err)
	}
	up, err := mgr.IngestTrace(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	key := up.Key
	fmt.Printf("stored %s as %s… (%d region profiles computed)\n", up.Name, key[:12], up.ProfilesComputed)

	// 2. Submit async jobs; identical in-flight requests would coalesce.
	ctx := context.Background()

	run := func(req service.Request) service.Snapshot {
		snap, err := mgr.Submit(req)
		if err != nil {
			log.Fatal(err)
		}
		snap, err = mgr.Wait(ctx, snap.ID)
		if err != nil {
			log.Fatal(err)
		}
		if snap.Status != service.StatusDone {
			log.Fatalf("job %s failed: %s", snap.ID, snap.Error)
		}
		return snap
	}

	snap := run(service.Request{Kind: service.KindAnalyze, Trace: key})
	fmt.Printf("%s: analyzed (cached=%v, %d result bytes)\n", snap.ID, snap.Cached, len(snap.Result))

	for _, warmup := range []string{"cold", "mru"} {
		snap := run(service.Request{Kind: service.KindEstimate, Trace: key, Warmup: warmup})
		fmt.Printf("%s: estimate %s warmup (cached=%v)\n", snap.ID, warmup, snap.Cached)
	}

	// 3. Repeat analyze: a pure cache hit, profiling never reruns.
	snap = run(service.Request{Kind: service.KindAnalyze, Trace: key})
	fmt.Printf("%s: analyzed again (cached=%v)\n", snap.ID, snap.Cached)

	// 4. The manager counts its activity in one metrics registry: what
	//    bpserve serves at GET /metrics.
	var text strings.Builder
	mgr.Metrics().WriteText(&text)
	for _, line := range strings.Split(text.String(), "\n") {
		switch name, _, _ := strings.Cut(line, " "); name {
		case "bp_jobs_done_total", "bp_job_cache_hits_total", "bp_cold_analyses_total":
			fmt.Println(line)
		}
	}
}
