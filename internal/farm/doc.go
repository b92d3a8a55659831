// Package farm is the distributed work-distribution tier: it decomposes a
// barrierpoint estimate into independent per-point simulation tasks,
// places them on a lease-based in-memory queue served over HTTP by
// cmd/bpserve, and assembles the per-region results as a fleet of
// cmd/bpworker processes streams them back. The paper's core observation
// (conf_ispass_CarlsonHCE14 §III) is that barrierpoint simulations are
// mutually independent — each starts from a fresh machine whose warmup
// state is a pure function of the trace prefix — so simulation throughput
// is horizontal: adding workers on other machines shortens the critical
// path down to the single largest point (the paper's "parallel speedup").
//
// # Task lifecycle
//
// A task is one (trace, region, machine, warmup) simulation. Its life:
//
//		          Enqueue                Lease                Complete
//		  spec ────────────▶ queued ────────────▶ leased ────────────▶ done
//		            │           ▲                    │
//		  store hit │           │ requeue:           │ Fail, or lease TTL
//		            ▼           │ attempts < max     ▼ expiry (no heartbeat)
//		          done          └──────────────── retriable ──▶ failed
//		                                             (attempts == max)
//
//	  - Enqueue deduplicates twice: against the content-addressed store
//	    (the task's result artifact — named by trace key, machine-config
//	    hash and warmup mode, see PointArtifact — may already exist from an
//	    earlier farm run, a local cached run, or another job), and against
//	    live tasks (an identical task already queued or leased is shared,
//	    both waiters get the same Ticket).
//	  - Lease hands a worker up to max tasks, each with a lease that
//	    expires LeaseTTL from now. A worker holding leases must call
//	    Heartbeat before they expire; each heartbeat renews the full TTL.
//	  - A task whose lease expires — worker crashed, hung, or partitioned —
//	    is requeued with its failure logged, and handed to the next worker
//	    that leases. After MaxAttempts leases end in failure or expiry the
//	    task fails permanently, and every waiter sees the accumulated
//	    per-attempt failure log.
//	  - Complete uploads the simulated RegionResult. Uploads are
//	    idempotent and unconditionally accepted, even from a worker whose
//	    lease has expired and whose task was already reassigned or
//	    completed by someone else: point simulation is deterministic, so a
//	    late duplicate result is byte-identical to the accepted one and is
//	    simply acknowledged. The first upload stores the result as a store
//	    artifact (so future runs dedup against it) and wakes the waiters.
//
// # Determinism
//
// Every execution path — LocalRunner's in-process pool, CachedRunner's
// store-backed reuse, QueueRunner's farm distribution — takes its points
// from the one producer of point simulations, bp.PrefixPass, which warms a
// fresh machine from a snapshot that depends only on the trace bytes before
// the region. A farmed estimate is
// therefore bit-identical to the local one, regardless of worker count,
// task interleaving, retries, or mid-run worker loss.
//
// For the same reason a worker does not rebuild the snapshot from region 0
// per task: its Executor, the compute path under Worker, keeps the MRU
// prefix pass of its last warm task, advances it
// for a task of the same trace at or ahead of it and replaces it otherwise
// (the full rule and its memory cost are on Executor), so a worker that
// leases many points of one trace decodes and tracks each warmup-prefix
// region once. The coordinator and the protocol know nothing of it.
//
// # Worker
//
// Worker is the one worker loop, written against the five calls it makes
// on a coordinator (Transport): Lease, Heartbeat, Complete, Fail and
// FetchTrace. There are two transports. *Client speaks the HTTP protocol
// below; cmd/bpworker is that plus flags, registration and a metrics
// listener. RunLocalWorker hands the same loop the Queue in its own
// process (tests, benchmarks, bpcamp -farm-workers), where FetchTrace has
// nothing to move. A batch is what one Lease returned, up to Concurrency
// tasks: its serial half — fetch, then Executor.Warm — runs task by task in
// PassOrder, so a batch of one trace is one advance of the held prefix
// pass; each task's parallel half — snapshot replay, detailed simulation,
// upload — starts as soon as its own snapshot is taken. Every lease of the
// batch is renewed at a third of the TTL until its task settles, a signal
// included; only outcomes the coordinator received count as settled.
//
// # Protocol (HTTP/JSON, mounted under /farm/ by cmd/bpserve)
//
//	POST /farm/register  {name}                → {worker, lease_ms}
//	POST /farm/lease     {worker, max}         → {tasks, lease_ms}
//	POST /farm/heartbeat {worker, tasks}       → {renewed, dropped}
//	POST /farm/result    {worker, task,
//	                      result | error}      → {status}
//	GET  /farm/workers                         → {workers, stats}
//	GET  /farm/trace/{key}                     → raw .bptrace bytes
//
// Workers are stateless: they hold no queue state, fetch any trace they
// are missing from /farm/trace/{key} into their own content-addressed
// store (verifying the key on ingest), and can join, leave or crash at
// any time. A heartbeat response's "dropped" list names leases the server
// no longer recognizes as the worker's; the worker must abandon those
// tasks (their results would still be accepted, but the work is likely
// being redone elsewhere).
//
// # Durability
//
// NewDurableQueue journals every state transition to a write-ahead log
// (a store.Journal) before applying it in memory, so a coordinator killed
// -9 mid-campaign restarts with exactly the queued and in-flight tasks it
// died with. NewQueue remains purely in-memory; cmd/bpserve opens the
// durable variant by default at <store>/farm.wal (disable with -wal off).
// Framing, torn-tail truncation, the compaction trigger and what a failed
// or closed log does are the journal's and are described once, in
// internal/store/journal.go; what is the queue's own is its records — a
// JSON walRecord per frame, with an "op" tag:
//
//	enqueue   {op, task{id, trace, region, sockets, warmup, artifact,
//	           attempt}, failures?}   a task entered the queue (compaction
//	                                  re-emits live tasks in this form)
//	lease     {op, id, worker, attempt}   a worker took the task
//	requeue   {op, id, msg}               a lease ended; task back to pending
//	complete  {op, id}                    result stored as artifact; done
//	fail      {op, id, msg}               attempts exhausted; failed for good
//
// Every append is fsynced before the transition is acknowledged, and the
// in-memory apply happens only after the append returns — so the journal
// is always at or ahead of memory, never behind. A crash between an
// append and its apply is therefore safe in every direction: the record
// describes work the caller was told had NOT happened yet (it got an
// error), and replay converges on the journaled state, which Enqueue's
// dedup then reconciles with the retrying caller. Complete orders its
// effects store-first: the result artifact is durable before the
// complete record is written, so a crash in between is healed at
// recovery by checking the store for each live task's artifact.
//
// Recovery (NewDurableQueue on a non-empty log) folds the replayed
// records into per-task state. Tasks still
// pending re-enter the queue in their original order; tasks that were
// leased re-enter pending immediately after them (their workers may be
// gone; if not, their uploads are accepted idempotently), with the
// interruption logged as an attempt failure; tasks whose result artifact
// already reached the store resolve on the spot. Recovered tasks carry
// fresh tickets with no waiters — a re-submitted job re-attaches through
// Enqueue's dedup, so no simulation is lost or repeated.
//
// Each queue instance mints a random epoch embedded in the task and worker
// ids it issues and echoed in register/lease responses. A worker leasing
// from a restarted coordinator sees the epoch change (ErrServerRestarted),
// re-registers, and keeps working; the queue likewise refuses to lease to
// ids minted by a previous life. Since no life reissues another's task ids,
// a late upload from before a restart completes its own task or nothing.
//
// The compaction snapshot is the live tasks — one enqueue record each, in
// pending order, plus a lease record for tasks out on a worker.
package farm
