// Command bpserve is the BarrierPoint analysis service: an HTTP/JSON API
// over a content-addressed trace store (internal/store) and an async job
// manager (internal/service). Clients upload recorded traces once, then
// submit analyze/simulate/estimate jobs; identical work is deduplicated in
// flight and every result is cached by content, so the paper's "one-time
// cost" analysis (Fig. 2) is paid once per trace regardless of how many
// machine configurations are later estimated.
//
// Usage:
//
//	bpserve -addr :8080 -store /var/lib/bpserve
//
// API:
//
//	POST /v1/traces            upload a .bptrace body → trace metadata
//	GET  /v1/traces            list stored trace keys
//	GET  /v1/traces/{key}      metadata + cached artifact names
//	GET  /v1/selections/{key}  cached selection (404 until analyzed);
//	                           ?signature=bbv|reuse_dist|combine
//	POST /v1/jobs              submit {"kind","trace","sockets","warmup",
//	                           "signature"} → job snapshot (202)
//	GET  /v1/jobs              list jobs
//	GET  /v1/jobs/{id}         job status; result embedded when done
//	GET  /healthz              liveness + readiness: store/queue counters,
//	                           WAL status, replay-cache and fleet state
//	GET  /metrics              Prometheus text exposition (bp_-prefixed)
//	GET  /debug/vars           the same registry as one expvar-style JSON
//	                           object, {"metrics": {...}}
//
// The farm tier (see internal/farm) adds the worker-facing endpoints —
// bpworker processes register, lease point-simulation tasks, heartbeat
// their leases, fetch traces they are missing, and upload results:
//
//	POST /farm/register        join the fleet → worker id + lease TTL
//	POST /farm/lease           pull up to N leased tasks
//	POST /farm/heartbeat       renew held leases
//	POST /farm/result          upload a RegionResult (idempotent) or error
//	GET  /farm/workers         fleet status + queue stats
//	GET  /farm/trace/{key}     raw trace bytes for worker-side replay
//
// Estimate jobs choose their execution with "exec": "local", "farm", or
// "auto" (the default: farm whenever live workers are registered, local
// otherwise). Farmed and local estimates are bit-identical.
//
// -pprof mounts net/http/pprof under /debug/pprof/ on the same listener;
// -log-level and -log-json control the structured log on stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"barrierpoint/internal/farm"
	"barrierpoint/internal/fault"
	"barrierpoint/internal/obs"
	"barrierpoint/internal/service"
	"barrierpoint/internal/sim"
	"barrierpoint/internal/store"
	"barrierpoint/internal/tracefile"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bpserve: %v\n", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until SIGINT/SIGTERM, then drains.
func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("bpserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		storeDir  = fs.String("store", "bpstore", "content-addressed store directory")
		workers   = fs.Int("workers", 0, "job worker goroutines (0 = GOMAXPROCS)")
		depth     = fs.Int("queue", 0, "job queue depth (0 = default)")
		maxMB     = fs.Int64("max-upload-mb", 1024, "largest accepted trace upload, MiB")
		leaseTTL  = fs.Duration("farm-lease-ttl", 30*time.Second, "farm task lease duration (heartbeats renew it)")
		retries   = fs.Int("farm-retries", 3, "farm task attempts before permanent failure")
		replayMB  = fs.Int64("replay-cache-mb", 256, "decoded-region replay cache budget, MiB (0 disables)")
		walPath   = fs.String("wal", "", "farm queue write-ahead log path (default <store>/farm.wal; \"off\" disables durability)")
		jobWal    = fs.String("job-wal", "", "job journal path (default <store>/jobs.wal; \"off\" disables crash-safe job recovery)")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget: time allowed for in-flight jobs to finish")
		faultSpec = fs.String("fault", "", "fault-injection spec, e.g. 'store.put-artifact:p=0.05' (chaos testing; see internal/fault)")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	lf := obs.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	logger, err := lf.Logger(stderr)
	if err != nil {
		return err
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
	mgr := service.New(st, *workers, *depth)
	if *replayMB <= 0 {
		mgr.SetReplayCacheBytes(-1)
	} else {
		mgr.SetReplayCacheBytes(*replayMB << 20)
	}
	fcfg := farm.Config{LeaseTTL: *leaseTTL, MaxAttempts: *retries}
	wal := *walPath
	if wal == "" {
		wal = filepath.Join(*storeDir, "farm.wal")
	}
	if wal == "off" {
		mgr.SetFarm(farm.NewQueue(st, fcfg))
	} else {
		fq, recov, err := farm.NewDurableQueue(st, fcfg, wal)
		if err != nil {
			return fmt.Errorf("opening farm wal: %w", err)
		}
		if recov.Records > 0 {
			logger.Info(fmt.Sprintf(
				"farm wal %s: replayed %d records (%d bytes torn tail dropped): %d pending, %d in-flight requeued, %d resolved from store",
				wal, recov.Records, recov.Dropped, recov.Pending, recov.Requeued, recov.StoreHits))
		}
		mgr.SetFarm(fq)
	}
	if q := mgr.Farm(); q != nil {
		q.SetLogger(logger)
	}
	// The job journal is enabled after the farm is wired so recovered
	// estimate jobs re-enqueued at startup see the same execution tiers
	// a fresh submission would.
	jw := *jobWal
	if jw == "" {
		jw = filepath.Join(*storeDir, "jobs.wal")
	}
	if jw != "off" {
		recov, err := mgr.EnableJournal(jw)
		if err != nil {
			return fmt.Errorf("opening job journal: %w", err)
		}
		if recov.Records > 0 {
			logger.Info(fmt.Sprintf(
				"job journal %s: replayed %d records (%d bytes torn tail dropped): %d resolved from store, %d re-enqueued, %d already terminal, %d unrecoverable",
				jw, recov.Records, recov.Dropped, recov.Resolved, recov.Requeued, recov.Terminal, recov.Unrecoverable))
		}
	}
	srv := newServer(st, mgr)
	srv.maxUpload = *maxMB << 20
	if *pprofOn {
		obs.MountPprof(srv.mux)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "store", *storeDir, "pprof", *pprofOn)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting connections, then let queued and
	// running jobs finish (bounded by -drain-timeout). Manager.Shutdown
	// journals every final state and closes the job journal only after a
	// full drain; on timeout the journal is left open, so the next start
	// replays and recovers whatever was cut off — same as a crash.
	logger.Info("shutting down", "drain_timeout", (*drainTO).String())
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	return mgr.Shutdown(shutCtx)
}

// server routes the HTTP API. It is an http.Handler.
type server struct {
	st        *store.Store
	mgr       *service.Manager
	mux       *http.ServeMux
	started   time.Time
	maxUpload int64 // largest accepted trace body, bytes
	uploads   atomic.Int64
}

func newServer(st *store.Store, mgr *service.Manager) *server {
	s := &server{st: st, mgr: mgr, mux: http.NewServeMux(), started: time.Now(), maxUpload: 1 << 30}
	if q := mgr.Farm(); q != nil {
		s.mux.Handle("/farm/", farm.NewServer(q, st))
	}

	// Server-level series join the manager's registry, so that registry is
	// the coordinator's one metrics surface: /metrics exposes it as
	// Prometheus text and /debug/vars as expvar-style JSON.
	reg := mgr.Metrics()
	obs.RegisterProcess(reg, sim.FreeListStats)
	reg.CounterFunc("bp_trace_uploads_total", "Traces accepted by POST /v1/traces.", func() float64 {
		return float64(s.uploads.Load())
	})
	reg.GaugeFunc("bp_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.started).Seconds()
	})
	reg.GaugeFunc("bp_traces_stored", "Distinct traces in the content-addressed store.", func() float64 {
		keys, err := s.st.Traces()
		if err != nil {
			return -1
		}
		return float64(len(keys))
	})

	s.mux.HandleFunc("POST /v1/traces", s.handleUpload)
	s.mux.HandleFunc("GET /v1/traces", s.handleListTraces)
	s.mux.HandleFunc("GET /v1/traces/{key}", s.handleGetTrace)
	s.mux.HandleFunc("GET /v1/selections/{key}", s.handleGetSelection)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /debug/vars", s.handleVars)
	s.mux.Handle("GET /metrics", reg.Handler())
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON serializes v with an indent (responses are small and read by
// humans and shell scripts alike).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// jsonError is the uniform error payload.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// traceMeta summarizes a stored trace.
type traceMeta struct {
	Key       string   `json:"key"`
	Name      string   `json:"name"`
	Threads   int      `json:"threads"`
	Regions   int      `json:"regions"`
	SizeBytes int64    `json:"size_bytes"`
	Existed   bool     `json:"existed,omitempty"`
	Artifacts []string `json:"artifacts,omitempty"`
	// Ingest reports how the upload that created this response was
	// processed; present only on POST /v1/traces responses.
	Ingest *ingestStats `json:"ingest,omitempty"`
}

// ingestStats is the upload-time profiling summary: with a streamed
// (version-2) upload, every region profile is already cached by the time
// the client sees the 201, so profiles_computed regions were profiled
// in-flight and a following analyze computes none.
type ingestStats struct {
	Streamed         bool `json:"streamed"`
	ProfilesCached   int  `json:"profiles_cached"`
	ProfilesComputed int  `json:"profiles_computed"`
}

// traceSize returns the stored trace's size in bytes.
func (s *server) traceSize(key string) (int64, error) {
	p, err := s.st.TracePath(key)
	if err != nil {
		return 0, err
	}
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// meta opens the stored trace and summarizes it.
func (s *server) meta(key string) (traceMeta, error) {
	f, err := s.st.OpenTrace(key)
	if err != nil {
		return traceMeta{}, err
	}
	defer f.Close()
	size, err := s.traceSize(key)
	if err != nil {
		return traceMeta{}, err
	}
	return traceMeta{
		Key:       key,
		Name:      f.Name(),
		Threads:   f.Threads(),
		Regions:   f.Regions(),
		SizeBytes: size,
	}, nil
}

// handleUpload streams the request body into the store as a trace: the
// bytes are hashed, durably persisted and — for version-2 uploads —
// profiled region by region while the transfer is still in progress, so
// by the time the 201 is written every region profile is cached. The body
// is capped at maxUpload bytes; invalid or oversized uploads are rejected
// and leave nothing behind (no trace, no partial profiles).
func (s *server) handleUpload(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.maxUpload)
	res, err := s.mgr.IngestTrace(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			jsonError(w, http.StatusRequestEntityTooLarge, "trace exceeds the %d byte upload limit", tooBig.Limit)
		case errors.Is(err, tracefile.ErrFormat):
			// The decoder may reject garbage before the size cap trips;
			// drain the capped body so an oversized upload still answers
			// 413, not a misleading format error.
			if _, derr := io.Copy(io.Discard, body); errors.As(derr, &tooBig) {
				jsonError(w, http.StatusRequestEntityTooLarge, "trace exceeds the %d byte upload limit", tooBig.Limit)
				return
			}
			jsonError(w, http.StatusBadRequest, "invalid trace: %v", err)
		default:
			jsonError(w, http.StatusInternalServerError, "storing trace: %v", err)
		}
		return
	}
	// The ingest already parsed what the response reports; only the stored
	// size is the store's to say.
	size, err := s.traceSize(res.Key)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "reading stored trace: %v", err)
		return
	}
	m := traceMeta{Key: res.Key, Name: res.Name, Threads: res.Threads, Regions: res.Regions, SizeBytes: size, Existed: res.Existed}
	m.Ingest = &ingestStats{
		Streamed:         res.Streamed,
		ProfilesCached:   res.ProfilesCached,
		ProfilesComputed: res.ProfilesComputed,
	}
	s.uploads.Add(1)
	code := http.StatusCreated
	if res.Existed {
		code = http.StatusOK
	}
	writeJSON(w, code, m)
}

func (s *server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	keys, err := s.st.Traces()
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": keys})
}

func (s *server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !s.st.HasTrace(key) {
		jsonError(w, http.StatusNotFound, "trace %s not found", key)
		return
	}
	m, err := s.meta(key)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if m.Artifacts, err = s.st.Artifacts(key); err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// handleGetSelection serves a cached selection without triggering
// analysis; clients that want computation submit an analyze job.
func (s *server) handleGetSelection(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !s.st.HasTrace(key) {
		jsonError(w, http.StatusNotFound, "trace %s not found", key)
		return
	}
	maxK := 0
	if v := r.URL.Query().Get("max_k"); v != "" {
		var err error
		if maxK, err = strconv.Atoi(v); err != nil {
			jsonError(w, http.StatusBadRequest, "max_k: %v", err)
			return
		}
	}
	cfg, err := service.ConfigFor(r.URL.Query().Get("signature"), maxK)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	b, err := service.CachedSelection(s.st, key, cfg)
	if errors.Is(err, store.ErrNotFound) {
		jsonError(w, http.StatusNotFound, "no cached selection for trace %s (submit an analyze job)", key)
		return
	}
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req service.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	snap, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, store.ErrNotFound):
		jsonError(w, http.StatusNotFound, "%v", err)
		return
	case errors.Is(err, service.ErrBusy):
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, service.ErrClosed):
		jsonError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, snap)
}

func (s *server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.mgr.Jobs()
	if jobs == nil {
		jobs = []service.Snapshot{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "job %s not found", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleHealth reports liveness plus readiness detail: job-manager
// counters, replay-cache occupancy, and — when a farm queue is wired —
// fleet and write-ahead-log state. "ready" is true once the store is
// readable; orchestration probes can gate worker traffic on it.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	_, storeErr := s.st.Traces()
	rcs := s.mgr.ReplayCacheStats()
	body := map[string]any{
		"status":         "ok",
		"ready":          storeErr == nil,
		"uptime_seconds": time.Since(s.started).Seconds(),
		"stats":          s.mgr.Stats(),
		"replay_cache": map[string]any{
			"bytes":     rcs.Bytes,
			"max_bytes": rcs.MaxBytes,
		},
	}
	if storeErr != nil {
		body["store_error"] = storeErr.Error()
	}
	body["job_journal"] = s.mgr.JournalStats()
	if rec := s.mgr.JobRecovery(); rec.Records > 0 {
		body["job_recovery"] = rec
	}
	if q := s.mgr.Farm(); q != nil {
		fs := q.Stats()
		farmBody := map[string]any{
			"workers_registered": len(q.Workers()),
			"workers_live":       fs.LiveWorkers,
			"tasks_pending":      fs.Pending,
			"tasks_leased":       fs.Leased,
			"wal":                q.JournalStats(),
		}
		if rec := q.Recovery(); rec.Records > 0 {
			farmBody["recovery"] = rec
		}
		body["farm"] = farmBody
	}
	writeJSON(w, http.StatusOK, body)
}

// handleVars renders the metrics registry in the format of expvar's
// process-global /debug/vars handler, under the single key "metrics".
func (s *server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n%q: %s\n}\n", "metrics", s.mgr.Metrics().Expvar())
}
