// Package fault is the repository's fault-injection harness: a registry
// of named injection points ("sites") that tests, smoke scripts and the
// chaos CI jobs arm with error or latency rules. Production code calls
// [Inject] (or an [Injector]'s Inject method) at each seam it wants to be
// testable under failure; when no rule is armed the call is a single
// atomic load, so the sites cost nothing in normal operation.
//
// # Site naming
//
// A site name is "<layer>.<operation>", lower-case, dot-separated:
//
//	rpc.register    farm.Client worker registration
//	rpc.lease       farm.Client task lease
//	rpc.heartbeat   farm.Client lease renewal
//	rpc.result      farm.Client result upload (Complete and Fail)
//	rpc.fetch       farm.Client trace download
//	store.put-artifact   store.Store artifact write
//	store.get-artifact   store.Store artifact read
//	store.wal.append     store.WAL record append (job journal)
//
// Rules match a site either exactly or by "prefix.*" glob ("rpc.*" arms
// every client RPC). To add a site, pick a name following the scheme
// above, call fault.Inject(name) at the top of the operation (before any
// side effect, so an injected failure is indistinguishable from the real
// one), list it here, and — if the site guards a retried operation —
// cover it in a flaky-path test.
//
// # Rule specs
//
// Rules are armed from a spec string (the -fault flag on bpserve and
// bpworker): semicolon-separated "site:opts" clauses, options
// comma-separated:
//
//	p=0.1       fail ~10% of hits (deterministic PRNG, see seed)
//	n=3         fail the first 3 hits, then pass
//	delay=50ms  sleep before deciding (latency injection; combines with
//	            p/n, or stands alone as pure latency)
//	seed=42     per-injector PRNG seed (global option, first clause wins)
//
// Example: "seed=7;rpc.lease:p=0.1;rpc.result:p=0.1,delay=5ms".
//
// Probabilistic rules draw from a deterministic PRNG seeded once per
// injector, so a given spec produces the same failure sequence on every
// run — chaos smokes are reproducible, not flaky.
package fault
