// Package farm is the distributed work-distribution tier: it decomposes a
// barrierpoint estimate into independent simulation tasks, one per run of
// points (bp.Runs), places them on a lease-based in-memory queue served
// over HTTP by cmd/bpserve, and assembles the per-region results as a fleet
// of cmd/bpworker processes streams them back. The paper's core observation
// (conf_ispass_CarlsonHCE14 §III) is that barrierpoint simulations are
// mutually independent — each starts from a fresh machine whose warmup
// state is a pure function of the trace prefix — so simulation throughput
// is horizontal: adding workers on other machines shortens the critical
// path down to the single largest run (the paper's "parallel speedup",
// when every point is a run of its own). Under mru+prev consecutive points
// form one run: its head starts as an independent point would, and each
// later member continues on the head's machine, so a run is one task.
//
// # Task lifecycle
//
// A task is one (trace, head region, run length, machine, warmup)
// simulation; under cold and mru every run is one point. Its life:
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
//	    (the result artifacts of every region of the run — named by trace
//	    key, region, machine-config hash, warmup mode and, for a member
//	    after the head, the head; see PointArtifact — may already exist
//	    from an earlier farm run, a local cached run, or another job), and
//	    against live tasks (an identical task already queued or leased is
//	    shared, both waiters get the same Ticket).
//	  - Lease hands a worker up to max tasks, each with a lease that
//	    expires LeaseTTL from now. A worker holding leases must call
//	    Heartbeat before they expire; each heartbeat renews the full TTL.
//	  - A task whose lease expires — worker crashed, hung, or partitioned —
//	    is requeued with its failure logged, and handed to the next worker
//	    that leases. After MaxAttempts leases end in failure or expiry the
//	    task fails permanently, and every waiter sees the accumulated
//	    per-attempt failure log.
//	  - Complete uploads the run's RegionResults, one per member. Uploads
//	    are idempotent and unconditionally accepted, even from a worker
//	    whose lease has expired and whose task was already reassigned or
//	    completed by someone else: simulation is deterministic, so a late
//	    duplicate result is byte-identical to the accepted one and is
//	    simply acknowledged. The first upload stores every member's result
//	    as a store artifact (so future runs dedup against it) and wakes the
//	    waiters.
//
// # Determinism
//
// Every execution path — LocalRunner's in-process pool, CachedRunner's
// store-backed reuse, QueueRunner's farm distribution — groups its points
// into the same runs (bp.Runs) and takes each run from the one producer of
// point simulations, bp.PrefixPass, which warms a fresh machine for the
// run's head from a snapshot that depends only on the trace bytes before
// the head. A farmed estimate is therefore bit-identical to the local one,
// regardless of worker count, task interleaving, retries, or mid-run worker
// loss.
//
// For the same reason a worker does not rebuild the snapshot from region 0
// per task: its Executor, the compute path under Worker, keeps the MRU
// prefix pass of its last warm task, advances it
// for a task of the same trace at or ahead of it and replaces it otherwise
// (the full rule and its memory cost are on Executor), so a worker that
// leases many runs of one trace decodes and tracks each warmup-prefix
// region once. The coordinator and the protocol know nothing of it.
//
// # Worker
//
// Worker is the one worker loop, written against the six calls it makes
// on a coordinator (Transport): Register, Lease, Heartbeat, Complete, Fail
// and FetchTrace. Worker.Run owns the whole session: it registers once and
// serves under that id, with one back-off for failed registrations and
// leases. There are two transports.
// *Client speaks the HTTP protocol below; cmd/bpworker is that plus flags
// and a metrics listener. RunLocalWorker hands the same loop the Queue in
// its own process (tests, benchmarks, bpcamp -farm-workers), where
// FetchTrace has nothing to move. A batch is what one Lease returned, up to Concurrency
// tasks: its serial half — fetch, then Executor.Warm — runs task by task in
// PassOrder, so a batch of one trace is one advance of the held prefix
// pass; each task's parallel half — snapshot replay, detailed simulation of
// the run, upload — starts as soon as its own snapshot is taken. Every lease of the
// batch is renewed at a third of the TTL until its task settles, a signal
// included; only outcomes the coordinator received count as settled.
//
// # Protocol (HTTP/JSON, mounted under /farm/ by cmd/bpserve)
//
//	POST /farm/register  {name}                → {worker, lease_ms}
//	POST /farm/lease     {worker, name, max}   → {tasks}
//	POST /farm/heartbeat {worker, tasks}       → {dropped}
//	POST /farm/result    {worker, task,
//	                      result | error}      → {status}
//	GET  /farm/workers                         → {workers}
//	GET  /farm/trace/{key}                     → raw .bptrace bytes
//
// A leased task carries its run as its head "region" and, for a run longer
// than one, "len"; its "result" is the run's RegionResults in region order:
// one object for a run of one, an array for a longer run.
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
// The queue keeps no log of its own. Its tasks live in memory, and a
// coordinator restart forgets them; what survives is what a restart
// needs:
//
//   - the job that enqueued the tasks, in the coordinator's job journal
//     (internal/service/journal.go), which re-runs every estimate that was
//     live at the crash under its original ID, so its points enqueue again;
//   - every result a worker uploaded before the crash, as a store artifact
//     that Complete publishes, fsynced, before it wakes a waiter. The
//     re-run's Enqueue resolves those points from the store on the spot,
//     so only the points that never finished run again.
//
// A task's attempts count within one coordinator life: after a restart its
// point starts again at attempt 1, so the MaxAttempts bound on a poison
// task holds per life, not across lives.
//
// Nothing else is tied to a coordinator life, so a restart voids nothing a
// worker holds. A task is named by its run — trace key, the head's
// PointArtifact and the run's length — so every life gives a run the same
// task ID, and a result uploaded after the restart for a run the recovered
// job enqueued again completes it.
// A worker keeps the random id it registered with: the restarted queue
// adds it to the fleet on its first call, as it does any id it does not
// know, and takes its name from its first lease. A worker only learns the lease TTL when it registers, so a
// coordinator restarted with another -farm-lease-ttl reaches a running
// worker only when that worker restarts; until then a shorter TTL costs
// only reassigned leases, whose uploads still complete their points.
package farm
