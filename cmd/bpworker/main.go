// Command bpworker is a farm worker: it registers with a bpserve server
// and runs farm.Worker over the HTTP/JSON farm protocol (see internal/farm),
// which pulls leased point-simulation tasks, fetches any trace it is
// missing into its own content-addressed store, simulates each task's run
// of points, and uploads the results. This file is the daemon around that loop: flags,
// logging, fault injection and the metrics listener.
// Workers are stateless and interchangeable — start as many as there are
// machines, kill them at will; the server's lease queue requeues whatever
// a lost worker was holding.
//
// Usage:
//
//	bpworker -server http://bpserve:8080 -store /var/cache/bpworker
//	bpworker -server http://bpserve:8080 -concurrency 8 -name rack3-07
//	bpworker -server http://bpserve:8080 -metrics-addr :9101 -pprof
//
// A worker batches up to -concurrency tasks per lease, simulates them in
// parallel, and heartbeats all held leases at a third of the server's
// lease TTL. On SIGINT/SIGTERM it stops leasing, finishes what it holds,
// and exits — nothing is abandoned mid-lease unless the process is
// killed, and even then the server requeues after the TTL.
//
// With -metrics-addr the worker serves GET /metrics (Prometheus text
// format, bpworker_-prefixed series) and GET /debug/spans (recent
// per-task spans as JSON, each carrying the submitting job's trace ID);
// -pprof additionally mounts net/http/pprof under /debug/pprof/ on the
// same listener.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"barrierpoint/internal/farm"
	"barrierpoint/internal/fault"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/sim"
	"barrierpoint/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bpworker: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable entry point: it serves tasks until ctx is done, the
// -max-tasks budget is spent, or the queue stays empty past -idle-exit.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("bpworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server      = fs.String("server", "http://127.0.0.1:8080", "bpserve base URL")
		storeDir    = fs.String("store", "bpworker-store", "local content-addressed trace store")
		name        = fs.String("name", "", "worker name shown in /farm/workers (default: hostname)")
		concurrency = fs.Int("concurrency", 0, "tasks simulated in parallel (0 = GOMAXPROCS)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "sleep between empty lease polls")
		maxTasks    = fs.Int("max-tasks", 0, "exit after settling this many tasks (0 = run forever); transient RPC trouble retries instead of burning budget")
		idleExit    = fs.Duration("idle-exit", 0, "exit after the queue stays empty this long (0 = never)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics and /debug/spans on this address (empty disables)")
		pprofOn     = fs.Bool("pprof", false, "mount net/http/pprof on the -metrics-addr listener")
		faultSpec   = fs.String("fault", "", "fault-injection spec, e.g. 'rpc.lease:p=0.1;rpc.result:p=0.1' (chaos testing; see internal/fault)")
	)
	lf := obs.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	logger, err := lf.Logger(stderr)
	if err != nil {
		return err
	}
	if *name == "" {
		if h, err := os.Hostname(); err == nil {
			*name = h
		} else {
			*name = "bpworker"
		}
	}
	if *concurrency <= 0 {
		*concurrency = runtime.GOMAXPROCS(0)
	}

	if err := fault.Configure(*faultSpec); err != nil {
		return err
	}
	if *faultSpec != "" {
		logger.Warn("fault injection armed", "spec", *faultSpec)
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	c := &farm.Client{Base: *server}

	spans := obs.NewSpanRecorder()
	w := farm.NewWorker(c, st, spans, logger)
	w.Concurrency, w.Poll, w.MaxTasks, w.IdleExit = *concurrency, *poll, *maxTasks, *idleExit
	obs.RegisterProcess(w.Metrics, sim.FreeListStats)
	rpcRetries := w.Metrics.Counter("bp_rpc_retries_total", "Farm RPC attempts that failed transiently and were retried with backoff.")
	c.OnRetry = func(op string, attempt int, err error) {
		rpcRetries.Inc()
		logger.Debug("rpc retrying", "op", op, "attempt", attempt, "err", err)
	}

	if *metricsAddr != "" {
		// Fail fast on a bad or taken address rather than silently running
		// without telemetry.
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		go http.Serve(ln, metricsMux(w.Metrics, spans, *pprofOn)) //nolint:errcheck // closed on return
		logger.Info("metrics listening", "addr", ln.Addr().String(), "pprof", *pprofOn)
	}

	return w.Run(ctx, *name)
}

// metricsMux is the worker's observability surface: Prometheus metrics,
// recent task spans, and (optionally) pprof.
func metricsMux(reg *obs.Registry, spans *obs.SpanRecorder, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/spans", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(spans.Spans()) //nolint:errcheck // best-effort debug endpoint
	})
	if withPprof {
		obs.MountPprof(mux)
	}
	return mux
}
