// Package campaign turns the paper's evaluation sweep into a first-class,
// resumable operation: a declarative Spec (workloads × thread counts ×
// machine configs × signature variants × warmup modes, at one workload
// scale) expands into a grid of cells, each cell runs through the analysis
// service (internal/service) as an estimate plus a ground-truth simulate
// job, and the completed grid aggregates into an accuracy/speedup matrix
// rendered by internal/report. The paper's Figure 7 is one such grid: one
// signature, one warmup mode, the paper's benchmark suite at 8 and 32
// threads.
//
// # Spec
//
// A spec is JSON (unknown fields are rejected, so typos fail loudly):
//
//	{
//	  "name": "fig4-mini",
//	  "workloads": ["npb-is", "npb-ft"],
//	  "threads": [8, 32],
//	  "sockets": [0],
//	  "signatures": ["combine"],
//	  "warmups": ["cold", "mru+prev"],
//	  "scale": 0.25,
//	  "target_ci": 0.02,
//	  "exec": "auto"
//	}
//
// Sockets size the Table I machine; 0 (the default) derives the socket
// count from the thread count. Signatures use the service vocabulary
// ("bbv", "reuse_dist", "combine"), warmups likewise ("cold", "mru",
// "mru+prev"). A positive target_ci makes every estimate
// adaptive — extra regions are promoted to detailed simulation until the
// runtime estimate's relative confidence interval reaches the target (see
// internal/adaptive) — and joins the identity hash, since it changes cell
// results. Exec selects how each cell's barrierpoint simulations run —
// "local", "farm" or "auto" — and, by design, never affects cell results,
// only where the work happens.
//
// # Manifest and resume semantics
//
// A campaign records progress in a manifest stored in the same
// content-addressed store as the traces and artifacts it depends on, under
//
//	<store>/campaigns/<name>-<hash>.json
//
// where <hash> is store.HashJSON of the spec's identity — everything that
// determines cell results (workloads, threads, sockets, signatures,
// warmups, scale, target_ci) and nothing that does not (name, exec). A local
// campaign and a farmed one therefore share a manifest, and editing any
// result-affecting spec field lands on a fresh manifest instead of
// silently reusing stale cells.
//
// The manifest holds the spec, the identity hash, the content keys of the
// traces recorded so far (one per workload × thread count), and one entry
// per completed cell:
//
//	{
//	  "spec": { ... },
//	  "hash": "2c8be23a71d4",
//	  "traces": { "npb-is/8": "3fe0…" },
//	  "cells": { "npb-is-8t-s0-combine-cold": { "trace_key": "3fe0…",
//	             "est_time_ns": …, "run_err_pct": …, … } }
//	}
//
// The manifest is rewritten (atomically, via the store's temp-file +
// rename convention) after every completed cell. A campaign killed at any
// point — including SIGKILL mid-cell — therefore resumes from its last
// completed cell: on restart, cells present in the manifest are served
// from it without touching the service, traces listed in the manifest are
// not re-recorded, and only the remaining cells run. Cells are keyed by
// their coordinates (Cell.ID), and each records the trace content key it
// was computed from, so the manifest is a pure function of store contents
// plus spec identity.
//
// Two invariants make interrupted and distributed runs trustworthy:
//
//   - A resumed campaign's matrix is byte-identical to an uninterrupted
//     one: cell results come from the manifest verbatim, the matrix
//     contains no timestamps, durations or execution metadata, and cells
//     render in deterministic grid order.
//   - A farmed campaign's matrix is byte-identical to a local one: farm
//     and local execution share the per-point result cache and produce
//     byte-identical estimate artifacts (see internal/farm), and exec mode
//     is excluded from the manifest identity.
//
// Even without a manifest entry, a re-run cell is cheap: every expensive
// stage behind it (selection, per-point simulations, estimate, ground
// truth) is cached in the store by content key and config hash, so the
// service answers from artifacts instead of recomputing. The manifest adds
// skip-the-service resumability and a durable record of the sweep.
package campaign
