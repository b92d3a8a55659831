// Package adaptive adds statistical confidence to barrierpoint estimates
// and drives simulation effort from it: every reconstructed metric gets a
// confidence interval, and an adaptive controller promotes additional
// regions to detailed simulation — cheapest-first within the most uncertain
// clusters — until a target relative interval is met or the selection is
// exhausted.
//
// # Lineage
//
// The approach is SMARTS-style matched sampling (Wunderlich et al., ISCA
// 2003) transplanted onto BarrierPoint's clustered region sampling. SMARTS
// sizes a systematic sample of tiny instruction windows from the measured
// variance of the metric and reports a confidence interval with the
// estimate; BarrierPoint instead simulates one representative per cluster
// of inter-barrier regions and extrapolates with instruction-count
// multipliers (paper §III-D), which yields a point estimate with no error
// bar. This package closes that gap: the cluster structure becomes the
// stratification of a stratified sampling design, each cluster's simulated
// members become its stratum sample, and the per-cluster sampling variance
// propagates through the linear reconstruction exactly as in stratified
// mean estimation.
//
// # Variance model
//
// Reconstruction is linear in per-instruction rates. For cluster c with
// instruction weight W_c, simulated member set S_c carrying weight
// W_sim(c), and per-member rates x_r = metric_r / w_r, the cluster
// contributes the simulated members' metrics verbatim plus an
// extrapolation of the unsimulated weight W_un(c) = W_c − W_sim(c) at the
// simulated mean rate. Only the extrapolated part is uncertain (PilotRel,
// SpreadAlpha and RelFloor below are the Default* constants — the model's
// calibration, fixed, not options):
//
//   - n ≥ 2 simulated members: the sample variance s² of the rates gives
//     var_c = W_un(c)² · s²/n with n−1 degrees of freedom — the standard
//     stratum variance of stratified sampling.
//   - n = 1 (the initial state of every cluster): there is no sample
//     variance, so the cluster gets a pilot prior
//     σ_rate = |x_rep| · (PilotRel + SpreadAlpha · Spread), where Spread is
//     the instruction-weighted mean L1 signature distance from members to
//     the representative (in [0, 2]). Signature spread alone badly
//     understates rate dispersion — near-identical signatures do not imply
//     similar per-instruction time, because region size and warmup effects
//     dominate — so PilotRel keeps the prior large enough that the
//     controller always draws a second sample from a multi-member cluster
//     before trusting it, the pilot phase of a SMARTS-style design. Proxy
//     variances get infinite degrees of freedom (a z quantile): they are
//     priors, not estimates.
//   - Fully simulated clusters contribute exactly zero variance, and their
//     reconstruction is exact (scale is exactly 1.0).
//
// Cluster variances combine as Σ var_c (strata are independent), the
// combined degrees of freedom follow Welch–Satterthwaite, and the t-based
// margin is widened in quadrature by RelFloor · estimate — an irreducible
// relative term covering warmup approximation error, which more sampling
// cannot shrink (it is a bias of every point simulation, not a sampling
// error). Derived metrics (IPC, APKI) get delta-method intervals from
// their numerator and denominator margins, ignoring their positive
// correlation — conservative, never anti-conservative.
//
// # The controller
//
// Run starts from the standard one-representative-per-cluster simulation
// and loops: compute intervals; stop if the runtime interval's relative
// half-width meets the target (or no cluster has an unsimulated member
// left); otherwise rank clusters by their runtime variance contribution
// and promote each top cluster's runner-up — its unsimulated member
// closest in signature distance to the representative — dispatching the
// whole batch through the caller's PointRunner, so promotions scale
// horizontally across a simulation farm exactly like the initial points.
// Every ranking and tie-break is deterministic (variance, then cluster id;
// distance, then region index), so the same trace, selection and target
// produce byte-identical promotion sequences and final estimates on any
// runner.
package adaptive
