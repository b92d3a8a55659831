// Package obs is the repo's dependency-free telemetry layer: a metrics
// registry rendered in Prometheus text exposition format, job/task spans
// with per-stage timings, and shared structured-logging setup. Every
// server (bpserve, bpworker) and the service/farm/campaign stack report
// through it; it has no dependencies outside the standard library and no
// process-global state, so tests can build as many registries and
// recorders as they like without collisions.
//
// # Metric naming conventions
//
// Metric names follow the Prometheus data model, with one flat namespace
// per process:
//
//   - Coordinator-side series are prefixed bp_ (bp_jobs_submitted_total,
//     bp_farm_tasks_pending, ...); worker-process series are prefixed
//     bpworker_ so a scrape config can tell the two apart even behind one
//     relabeling rule.
//   - Counters end in _total and only ever increase; gauges carry no
//     suffix and report current level (bp_farm_tasks_pending,
//     bp_replay_cache_bytes).
//   - Histograms carry a unit suffix — _seconds for latencies, _bytes for
//     sizes — and expose the standard _bucket{le="..."}/_sum/_count
//     series with cumulative, monotone buckets ending at le="+Inf".
//   - At most one label per family, named for its dimension: job
//     histograms are labeled {kind="analyze|simulate|estimate"}, stage
//     histograms {stage="profile|cluster|..."}, WAL op histograms
//     {op="append|rewrite"}.
//
// # Spans and trace IDs
//
// A trace ID is minted once per service job (service.Manager.Submit) and
// follows the work everywhere it goes: into the job's Span (queryable via
// GET /v1/jobs/{id} and `bptool trace`), onto every farm task the job
// enqueues (farm.Task.TraceID, the X-Bp-Trace-Id(s) HTTP headers), and
// into the span each worker records while simulating that task — so one
// grep over coordinator and worker telemetry reconstructs a distributed
// job end to end. Span stages partition a job's wall clock (profile,
// cluster, simulate-points, reconstruct, adaptive-round, ...); stages
// flagged Concurrent (trace-decode, warmup-capture) overlap the others and
// are excluded from the partition sum.
package obs
