package workload

import (
	"fmt"
	"sort"
)

// KB and MB are byte-size helpers for kernel working sets.
const (
	KB = 1 << 10
	MB = 1 << 20
)

// arrayBase computes a distinct address range per (benchmark, array).
// Benchmarks are 4 TiB apart and arrays 16 GiB apart, so partitioned
// per-thread working sets can never collide.
func arrayBase(bench, array int) uint64 {
	return uint64(bench+1)<<42 + uint64(array)<<34
}

// Option configures program construction.
type Option func(*options)

type options struct {
	scale float64
}

// WithScale multiplies every kernel's iteration count by s (0 < s <= 1 for
// scaled-down test runs). Region counts and phase structure are unchanged.
func WithScale(s float64) Option {
	return func(o *options) { o.scale = s }
}

func applyOptions(opts []Option) options {
	o := options{scale: 1}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// constructor builds one benchmark at a given thread count and work scale.
type constructor func(threads int, scale float64) *Program

var registry = map[string]constructor{
	"npb-bt":           buildBT,
	"npb-ep":           buildEP,
	"npb-ua":           buildUA,
	"npb-cg":           buildCG,
	"npb-ft":           buildFT,
	"npb-is":           buildIS,
	"npb-lu":           buildLU,
	"npb-mg":           buildMG,
	"npb-sp":           buildSP,
	"parsec-bodytrack": buildBodytrack,
}

// extended marks benchmarks outside the paper's evaluated suite (the two
// NPB codes the paper excluded; see buildUA and buildEP).
var extended = map[string]bool{"npb-ua": true, "npb-ep": true}

// Names returns the paper's evaluated benchmark set in plotting order.
// The extended workloads (npb-ua, npb-ep) are constructible via New but
// excluded here so the experiment harness matches the paper's figures.
func Names() []string {
	ns := make([]string, 0, len(registry))
	for n := range registry {
		if !extended[n] {
			ns = append(ns, n)
		}
	}
	sort.Slice(ns, func(i, j int) bool {
		// parsec first, as in the paper's figures.
		pi, pj := ns[i][:3] == "par", ns[j][:3] == "par"
		if pi != pj {
			return pi
		}
		return ns[i] < ns[j]
	})
	return ns
}

// Exists reports whether name is a constructible benchmark, including the
// extended workloads that Names omits.
func Exists(name string) bool {
	_, ok := registry[name]
	return ok
}

// New constructs the named benchmark for the given thread count.
// It panics on unknown names; use Names for the valid set.
func New(name string, threads int, opts ...Option) *Program {
	c, ok := registry[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown benchmark %q", name))
	}
	o := applyOptions(opts)
	return c(threads, o.scale)
}

// perThread returns a helper dividing a fixed total array size into
// per-thread partitions (strong scaling: the data set does not grow with
// the thread count), floored at one cache line.
func perThread(threads int) func(total uint64) uint64 {
	return func(total uint64) uint64 {
		w := total / uint64(threads)
		if w < 64 {
			w = 64
		}
		return w
	}
}

// it scales an iteration count, keeping it at least one per thread.
func it(base int, scale float64, threads int) int {
	n := int(float64(base) * scale)
	if n < threads {
		n = threads
	}
	return n
}

// buildBT models NPB BT: an ADI solver time-stepping loop. 1001 regions:
// one initialization plus 200 time steps of (rhs, x_solve, y_solve,
// z_solve, add). All phases operate on the same solution grid U (the three
// solves differ in sweep direction/stride), with the RHS array written by
// rhs and read by add; initialization touches both, so only capacity
// effects — not cold data — differentiate instances of a phase.
func buildBT(threads int, scale float64) *Program {
	b := newBuilder("npb-bt", threads)
	baseU := arrayBase(0, 0)
	baseR := arrayBase(0, 1)
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)

	initU := b.kernel(Kernel{Name: "init_u", Pattern: Random,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 16, Accs: 6, WriteFrac: 0.9})
	initR := b.kernel(Kernel{Name: "init_rhs", Pattern: Sequential,
		Base: baseR, WSet: per(256 * KB), BodyInstrs: 12, Accs: 6, WriteFrac: 0.9})
	rhs := b.kernel(Kernel{Name: "compute_rhs", Pattern: Sequential,
		Base: baseR, WSet: per(256 * KB), BodyInstrs: 24, Accs: 8, WriteFrac: 0.3})
	xs := b.kernel(Kernel{Name: "x_solve", Pattern: Sequential,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.4})
	ys := b.kernel(Kernel{Name: "y_solve", Pattern: Strided, Stride: 512,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.4})
	zs := b.kernel(Kernel{Name: "z_solve", Pattern: Strided, Stride: 4096,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.4})
	add := b.kernel(Kernel{Name: "add", Pattern: Sequential,
		Base: baseR, WSet: per(256 * KB), BodyInstrs: 12, Accs: 4, WriteFrac: 0.5})

	b.region(Exec{K: initU, Iters: n(4800)}, Exec{K: initR, Iters: n(4800)})
	for step := 0; step < 200; step++ {
		// Every fourth step runs a shorter rhs (boundary-only update),
		// exercising same-cluster/different-length scaling.
		rhsScale := 1.0
		if step%4 == 3 {
			rhsScale = 0.5
		}
		b.region(Exec{K: rhs, Iters: n(4800), Scale: rhsScale})
		b.region(Exec{K: xs, Iters: n(4800)})
		b.region(Exec{K: ys, Iters: n(4800)})
		b.region(Exec{K: zs, Iters: n(4800)})
		b.region(Exec{K: add, Iters: n(3600)})
	}
	return b.build()
}

// buildCG models NPB CG: conjugate gradient. The sparse matrix is a shared
// 24 MB working set randomly gathered by spmv — it exceeds the 8-core LLC
// (8 MB) but fits the 32-core aggregate LLC (32 MB), producing the paper's
// superlinear 8→32 scaling (Fig. 8). 46 regions: one init plus 15
// iterations of (spmv, dot/axpy, norm), all over the same matrix/vectors.
func buildCG(threads int, scale float64) *Program {
	b := newBuilder("npb-cg", threads)
	baseM := arrayBase(1, 0)
	baseV := arrayBase(1, 1)
	baseAcc := arrayBase(1, 2)
	baseX := arrayBase(1, 3)
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)

	matrixSlice := uint64(24*MB) / uint64(threads) // row-partitioned matrix
	initM := b.kernel(Kernel{Name: "makea", Pattern: Sequential,
		Base: baseM, WSet: matrixSlice, BodyInstrs: 14, Accs: 8, WriteFrac: 0.9})
	initV := b.kernel(Kernel{Name: "init_vectors", Pattern: Sequential,
		Base: baseV, WSet: per(512 * KB), BodyInstrs: 12, Accs: 6, WriteFrac: 0.9})
	initX := b.kernel(Kernel{Name: "init_x", Pattern: Sequential, Shared: true,
		Base: baseX, WSet: 2 * MB, BodyInstrs: 12, Accs: 6, WriteFrac: 0.9})
	spmv := b.kernel(Kernel{Name: "spmv", Pattern: Sequential,
		Base: baseM, WSet: matrixSlice, BodyInstrs: 20, Accs: 8})
	gather := b.kernel(Kernel{Name: "gather_x", Pattern: Random, Shared: true,
		Base: baseX, WSet: 2 * MB, BodyInstrs: 18, Accs: 6})
	dax := b.kernel(Kernel{Name: "dot_axpy", Pattern: Sequential,
		Base: baseV, WSet: per(512 * KB), BodyInstrs: 20, Accs: 8, WriteFrac: 0.25})
	norm := b.kernel(Kernel{Name: "norm", Pattern: Reduction,
		Base: baseV, WSet: per(512 * KB), BodyInstrs: 16, Accs: 6,
		SharedAcc: baseAcc})
	resid := b.kernel(Kernel{Name: "initial_residual", Pattern: Sequential,
		Base: baseV, WSet: per(512 * KB), BodyInstrs: 18, Accs: 8, WriteFrac: 0.6})

	b.region(Exec{K: initM, Iters: n(49152)}, Exec{K: initV, Iters: n(8000)},
		Exec{K: initX, Iters: n(44000)})
	for i := 0; i < 15; i++ {
		// CG's first iteration additionally computes the initial residual
		// r0 = b - A·x0, giving it a distinct code signature, exactly as
		// the real benchmark's untimed first iteration does.
		if i == 0 {
			b.region(Exec{K: spmv, Iters: n(49152)}, Exec{K: gather, Iters: n(8000)},
				Exec{K: resid, Iters: n(8000)})
			b.region(Exec{K: dax, Iters: n(8000)}, Exec{K: resid, Iters: n(4000)})
			b.region(Exec{K: norm, Iters: n(4000)})
			continue
		}
		b.region(Exec{K: spmv, Iters: n(49152)}, Exec{K: gather, Iters: n(8000)})
		b.region(Exec{K: dax, Iters: n(8000)})
		b.region(Exec{K: norm, Iters: n(4000)})
	}
	return b.build()
}

// buildFT models NPB FT: a 3-D FFT over one complex grid U. 34 regions:
// four distinct setup regions (which initialize U) plus six iterations of
// (evolve, fft_x, fft_y, fft_z, checksum), all reading and writing U in
// different orders. The paper finds exactly nine barrierpoints for ft;
// this schedule has nine distinct behaviours by construction.
func buildFT(threads int, scale float64) *Program {
	b := newBuilder("npb-ft", threads)
	baseU := arrayBase(2, 0)
	baseAcc := arrayBase(2, 1)
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)
	ws := per(1 * MB)

	setup1 := b.kernel(Kernel{Name: "compute_indexmap", Pattern: Sequential,
		Base: baseU, WSet: ws, BodyInstrs: 14, Accs: 4, WriteFrac: 0.9})
	setup2 := b.kernel(Kernel{Name: "compute_initial_conditions", Pattern: Random,
		Base: baseU, WSet: ws, BodyInstrs: 18, Accs: 6, WriteFrac: 0.9})
	setup3 := b.kernel(Kernel{Name: "fft_init", Pattern: Sequential,
		Base: baseU, WSet: per(512 * KB), PartStride: ws, BodyInstrs: 30, Accs: 4, WriteFrac: 0.5})
	setup4 := b.kernel(Kernel{Name: "warmup_fft", Pattern: Strided, Stride: 1024,
		Base: baseU, WSet: ws, BodyInstrs: 24, Accs: 6, WriteFrac: 0.5})
	evolve := b.kernel(Kernel{Name: "evolve", Pattern: Sequential,
		Base: baseU, WSet: ws, BodyInstrs: 20, Accs: 6, WriteFrac: 0.5})
	fftx := b.kernel(Kernel{Name: "fft_x", Pattern: Sequential,
		Base: baseU, WSet: ws, BodyInstrs: 28, Accs: 8, WriteFrac: 0.5})
	ffty := b.kernel(Kernel{Name: "fft_y", Pattern: Strided, Stride: 1024,
		Base: baseU, WSet: ws, BodyInstrs: 28, Accs: 8, WriteFrac: 0.5})
	fftz := b.kernel(Kernel{Name: "fft_z", Pattern: Strided, Stride: 8192,
		Base: baseU, WSet: ws, BodyInstrs: 28, Accs: 8, WriteFrac: 0.5})
	cksum := b.kernel(Kernel{Name: "checksum", Pattern: Reduction,
		Base: baseU, WSet: ws, BodyInstrs: 14, Accs: 6, SharedAcc: baseAcc})

	b.region(Exec{K: setup1, Iters: n(8000)})
	b.region(Exec{K: setup2, Iters: n(8000)})
	b.region(Exec{K: setup3, Iters: n(4000)})
	b.region(Exec{K: setup4, Iters: n(8000)})
	for i := 0; i < 6; i++ {
		b.region(Exec{K: evolve, Iters: n(8000)})
		b.region(Exec{K: fftx, Iters: n(8000)})
		b.region(Exec{K: ffty, Iters: n(8000)})
		b.region(Exec{K: fftz, Iters: n(8000)})
		b.region(Exec{K: cksum, Iters: n(2000)})
	}
	return b.build()
}

// buildIS models NPB IS: bucket sort of integer keys. 11 regions, each a
// distinct behaviour (key generation, nine ranking passes over shared
// histograms of doubling size, verification) — matching the paper's
// finding that every is region is its own barrierpoint (multiplier 1.0).
func buildIS(threads int, scale float64) *Program {
	b := newBuilder("npb-is", threads)
	base := func(a int) uint64 { return arrayBase(3, a) }
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)

	keygen := b.kernel(Kernel{Name: "create_seq", Pattern: Random,
		Base: base(0), WSet: per(4 * MB), BodyInstrs: 16, Accs: 8, WriteFrac: 0.9})
	b.region(Exec{K: keygen, Iters: n(16000)})
	for i := 0; i < 9; i++ {
		ws := uint64(128*KB) << i // 128 KB .. 32 MB shared histogram
		rank := b.kernel(Kernel{Name: fmt.Sprintf("rank_%d", i),
			Pattern: Random, Shared: true,
			Base: base(1 + i), WSet: ws,
			BodyInstrs: 18, Accs: 8, WriteFrac: 0.3})
		b.region(Exec{K: rank, Iters: n(16000)})
	}
	verify := b.kernel(Kernel{Name: "full_verify", Pattern: Sequential,
		Base: base(0), WSet: per(4 * MB), BodyInstrs: 12, Accs: 4})
	b.region(Exec{K: verify, Iters: n(8000)})
	return b.build()
}

// buildLU models NPB LU: an SSOR solver over one grid U plus an RHS array.
// 503 regions: three setup regions (initializing both arrays) plus 100
// time steps of (jacld, blts, jacu, buts, rhs). The triangular sweeps
// carry mild wavefront imbalance.
func buildLU(threads int, scale float64) *Program {
	b := newBuilder("npb-lu", threads)
	baseU := arrayBase(4, 0)
	baseR := arrayBase(4, 1)
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)
	wave := []float64{1.15, 0.95, 1.0, 0.9}

	s1 := b.kernel(Kernel{Name: "setbv", Pattern: Sequential,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 12, Accs: 4, WriteFrac: 0.9})
	s2 := b.kernel(Kernel{Name: "setiv", Pattern: Strided, Stride: 1024,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 14, Accs: 6, WriteFrac: 0.9})
	s3 := b.kernel(Kernel{Name: "erhs", Pattern: Sequential,
		Base: baseR, WSet: per(512 * KB), BodyInstrs: 20, Accs: 6, WriteFrac: 0.9})
	jacld := b.kernel(Kernel{Name: "jacld", Pattern: Sequential,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 40, Accs: 4, WriteFrac: 0.5})
	blts := b.kernel(Kernel{Name: "blts", Pattern: Strided, Stride: 512,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.4})
	jacu := b.kernel(Kernel{Name: "jacu", Pattern: Sequential,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 40, Accs: 4, WriteFrac: 0.5})
	buts := b.kernel(Kernel{Name: "buts", Pattern: Strided, Stride: 2048,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.4})
	rhs := b.kernel(Kernel{Name: "rhs", Pattern: Sequential,
		Base: baseR, WSet: per(512 * KB), BodyInstrs: 24, Accs: 8, WriteFrac: 0.3})

	b.region(Exec{K: s1, Iters: n(4000)})
	b.region(Exec{K: s2, Iters: n(4000)})
	b.region(Exec{K: s3, Iters: n(4000)})
	for step := 0; step < 100; step++ {
		b.region(Exec{K: jacld, Iters: n(3600)})
		b.region(Exec{K: blts, Iters: n(3600), Imbalance: wave})
		b.region(Exec{K: jacu, Iters: n(3600)})
		b.region(Exec{K: buts, Iters: n(3600), Imbalance: wave})
		b.region(Exec{K: rhs, Iters: n(3600)})
	}
	return b.build()
}

// buildMG models NPB MG: a multigrid V-cycle. 245 regions: five setup
// regions (initializing every grid level) plus 20 V-cycles of 12 smoothing
// sweeps descending and ascending the level hierarchy. All smoothing
// regions run the *same code* (one kernel id) on per-level grids whose
// working sets halve per level — BBV-identical after normalization but
// LDV-distinct, the case motivating combined signatures (paper §III-A2,
// Fig. 5).
func buildMG(threads int, scale float64) *Program {
	b := newBuilder("npb-mg", threads)
	base := func(a int) uint64 { return arrayBase(5, a) }
	n := func(v int) int { return it(v, scale, threads) }
	const levels = 6
	gridBase := func(l int) uint64 { return base(2 + l) }
	per := perThread(threads)
	gridWS := func(l int) uint64 { return per(uint64(1*MB) >> l) }

	zero := b.kernel(Kernel{Name: "zero3", Pattern: Sequential,
		Base: gridBase(0), WSet: gridWS(0), BodyInstrs: 10, Accs: 4, WriteFrac: 1.0})
	seed := b.kernel(Kernel{Name: "zran3", Pattern: Random,
		Base: gridBase(0), WSet: gridWS(0), BodyInstrs: 18, Accs: 6, WriteFrac: 0.9})
	normK := b.kernel(Kernel{Name: "norm2u3", Pattern: Reduction,
		Base: gridBase(0), WSet: gridWS(0), BodyInstrs: 14, Accs: 6, SharedAcc: base(0)})

	// Coarse-grid initialization: one region touching every level once.
	coarseInit := make([]Exec, 0, levels-1)
	for l := 1; l < levels; l++ {
		k := b.kernel(Kernel{Name: fmt.Sprintf("init_grid_%d", l), Pattern: Sequential,
			Base: gridBase(l), WSet: gridWS(l), BodyInstrs: 10, Accs: 4, WriteFrac: 1.0})
		coarseInit = append(coarseInit, Exec{K: k, Iters: n(16000 >> l)})
	}
	interpInit := b.kernel(Kernel{Name: "interp_init", Pattern: Strided, Stride: 512,
		Base: gridBase(0), WSet: gridWS(0), BodyInstrs: 16, Accs: 6, WriteFrac: 0.5})

	// One smoother kernel; per-level variants share its id (same code).
	smooth := b.kernel(Kernel{Name: "psinv", Pattern: Sequential,
		Base: gridBase(0), WSet: gridWS(0), BodyInstrs: 20, Accs: 6, WriteFrac: 0.5})
	levelKernel := make([]*Kernel, levels)
	for l := 0; l < levels; l++ {
		v := *smooth // same ID: identical static code
		v.Base = gridBase(l)
		v.WSet = gridWS(l)
		levelKernel[l] = &v
	}

	b.region(Exec{K: zero, Iters: n(16000)})
	b.region(Exec{K: seed, Iters: n(16000)})
	b.region(Exec{K: normK, Iters: n(4000)})
	b.region(coarseInit...)
	b.region(Exec{K: interpInit, Iters: n(4000)})
	for cycle := 0; cycle < 20; cycle++ {
		for l := 0; l < levels; l++ { // restrict down
			b.region(Exec{K: levelKernel[l], Iters: n(16000 >> l)})
		}
		for l := levels - 1; l >= 0; l-- { // prolongate up
			b.region(Exec{K: levelKernel[l], Iters: n(16000 >> l)})
		}
	}
	return b.build()
}

// buildSP models NPB SP: a scalar pentadiagonal solver over one grid U and
// an RHS array. 3601 regions: one init plus 400 time steps of nine phases.
// The directional solves alternate between full- and half-length instances
// across steps, producing the fractional multipliers of Table III.
func buildSP(threads int, scale float64) *Program {
	b := newBuilder("npb-sp", threads)
	baseU := arrayBase(6, 0)
	baseR := arrayBase(6, 1)
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)

	initU := b.kernel(Kernel{Name: "init_u", Pattern: Random,
		Base: baseU, WSet: per(128 * KB), BodyInstrs: 16, Accs: 6, WriteFrac: 0.9})
	initR := b.kernel(Kernel{Name: "init_rhs", Pattern: Sequential,
		Base: baseR, WSet: per(256 * KB), BodyInstrs: 12, Accs: 6, WriteFrac: 0.9})
	txinvr := b.kernel(Kernel{Name: "txinvr", Pattern: Sequential,
		Base: baseU, WSet: per(128 * KB), BodyInstrs: 14, Accs: 4, WriteFrac: 0.5})
	xs := b.kernel(Kernel{Name: "x_solve", Pattern: Sequential,
		Base: baseU, WSet: per(128 * KB), BodyInstrs: 16, Accs: 6, WriteFrac: 0.4})
	ys := b.kernel(Kernel{Name: "y_solve", Pattern: Strided, Stride: 512,
		Base: baseU, WSet: per(128 * KB), BodyInstrs: 16, Accs: 6, WriteFrac: 0.4})
	zs := b.kernel(Kernel{Name: "z_solve", Pattern: Strided, Stride: 4096,
		Base: baseU, WSet: per(128 * KB), BodyInstrs: 16, Accs: 6, WriteFrac: 0.4})
	rhs1 := b.kernel(Kernel{Name: "compute_rhs_a", Pattern: Sequential,
		Base: baseR, WSet: per(256 * KB), BodyInstrs: 22, Accs: 8, WriteFrac: 0.3})
	rhs2 := b.kernel(Kernel{Name: "compute_rhs_b", Pattern: Random,
		Base: baseR, WSet: per(256 * KB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.3})
	add := b.kernel(Kernel{Name: "add", Pattern: Sequential,
		Base: baseU, WSet: per(128 * KB), BodyInstrs: 12, Accs: 4, WriteFrac: 0.5})

	b.region(Exec{K: initU, Iters: n(3600)}, Exec{K: initR, Iters: n(3600)})
	for step := 0; step < 400; step++ {
		solveScale := 1.0
		if step%10 == 9 {
			solveScale = 0.5 // periodic short relaxation steps
		}
		b.region(Exec{K: rhs1, Iters: n(1920)})
		b.region(Exec{K: rhs2, Iters: n(1920)})
		b.region(Exec{K: txinvr, Iters: n(1920)})
		b.region(Exec{K: xs, Iters: n(1920), Scale: solveScale})
		b.region(Exec{K: add, Iters: n(960)})
		b.region(Exec{K: ys, Iters: n(1920), Scale: solveScale})
		b.region(Exec{K: zs, Iters: n(1920), Scale: solveScale})
		b.region(Exec{K: txinvr, Iters: n(960)})
		b.region(Exec{K: add, Iters: n(1920)})
	}
	return b.build()
}

// buildBodytrack models PARSEC bodytrack: per-frame particle-filter
// tracking. 89 regions: one model-load region plus 8 frames of 11 stages.
// The image-processing stages share the frame buffers (overwritten every
// frame at the same addresses, as in the real code); the particle
// weighting stages gather from a large shared model and carry per-thread
// load imbalance, exercising the concatenated (not summed) multi-threaded
// signature combination (paper §III-A4).
func buildBodytrack(threads int, scale float64) *Program {
	b := newBuilder("parsec-bodytrack", threads)
	baseImg := arrayBase(7, 0) // frame/edge buffers, partitioned
	baseW := arrayBase(7, 1)   // shared appearance model
	baseP := arrayBase(7, 2)   // particle state
	baseAcc := arrayBase(7, 3) // weight accumulator
	baseWin := arrayBase(7, 4) // inside-model buffer
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)
	imb := []float64{1.4, 0.7, 1.1, 0.8}

	load := b.kernel(Kernel{Name: "load_model", Pattern: Sequential, Shared: true,
		Base: baseW, WSet: 2 * MB, BodyInstrs: 14, Accs: 6, WriteFrac: 0.9})
	initImg := b.kernel(Kernel{Name: "alloc_frame_buffers", Pattern: Sequential,
		Base: baseImg, WSet: per(1 * MB), BodyInstrs: 10, Accs: 6, WriteFrac: 1.0})
	initP := b.kernel(Kernel{Name: "init_particles", Pattern: Sequential,
		Base: baseP, WSet: per(512 * KB), BodyInstrs: 12, Accs: 6, WriteFrac: 1.0})
	initWin := b.kernel(Kernel{Name: "load_inside_model", Pattern: Sequential, Shared: true,
		Base: baseWin, WSet: 1 * MB, BodyInstrs: 12, Accs: 6, WriteFrac: 1.0})
	stages := []*Kernel{
		b.kernel(Kernel{Name: "edge_detect", Pattern: Sequential,
			Base: baseImg, WSet: per(1 * MB), BodyInstrs: 20, Accs: 6, WriteFrac: 0.4}),
		b.kernel(Kernel{Name: "edge_smooth_x", Pattern: Sequential,
			Base: baseImg, WSet: per(1 * MB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.5}),
		b.kernel(Kernel{Name: "edge_smooth_y", Pattern: Strided, Stride: 1024,
			Base: baseImg, WSet: per(1 * MB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.5}),
		b.kernel(Kernel{Name: "binary_image", Pattern: Sequential,
			Base: baseImg, WSet: per(512 * KB), PartStride: per(1 * MB), BodyInstrs: 12, Accs: 4, WriteFrac: 0.5}),
		b.kernel(Kernel{Name: "sample_particles", Pattern: Random,
			Base: baseP, WSet: per(512 * KB), BodyInstrs: 22, Accs: 4,
			WriteFrac: 0.5, BranchProb: 0.35}),
		b.kernel(Kernel{Name: "weight_edge", Pattern: Random, Shared: true,
			Base: baseW, WSet: 2 * MB, BodyInstrs: 26, Accs: 8}),
		b.kernel(Kernel{Name: "weight_inside", Pattern: Random, Shared: true,
			Base: baseWin, WSet: 1 * MB, BodyInstrs: 24, Accs: 6}),
		b.kernel(Kernel{Name: "normalize_weights", Pattern: Reduction,
			Base: baseP, WSet: per(512 * KB), BodyInstrs: 14, Accs: 6,
			SharedAcc: baseAcc}),
		b.kernel(Kernel{Name: "resample", Pattern: Random,
			Base: baseP, WSet: per(512 * KB), BodyInstrs: 16, Accs: 6, WriteFrac: 0.5}),
		b.kernel(Kernel{Name: "update_model", Pattern: Sequential,
			Base: baseP, WSet: per(512 * KB), BodyInstrs: 18, Accs: 6, WriteFrac: 0.6}),
		b.kernel(Kernel{Name: "output_estimate", Pattern: Sequential,
			Base: baseP, WSet: per(256 * KB), PartStride: per(512 * KB), BodyInstrs: 10, Accs: 4, WriteFrac: 0.8}),
	}

	b.region(Exec{K: load, Iters: n(40000)},
		Exec{K: initImg, Iters: n(4000)},
		Exec{K: initP, Iters: n(2000)},
		Exec{K: initWin, Iters: n(24000)})
	for frame := 0; frame < 8; frame++ {
		for i, k := range stages {
			e := Exec{K: k, Iters: n(6000)}
			if i == 5 || i == 6 { // particle weighting: imbalanced
				e.Iters = n(12000)
				e.Imbalance = imb
			}
			if i == 10 {
				e.Iters = n(2000)
			}
			b.region(e)
		}
	}
	return b.build()
}

// Extended workloads: the two NPB benchmarks the paper excluded. EP runs
// through the degenerate single-region path; UA is here as the stress case
// the paper names.

// buildUA models NPB UA (unstructured adaptive mesh): a very large number
// of small inter-barrier regions — 7603 barriers from 400 time steps of a
// cyclic 19-phase adaptive schedule plus setup. The paper's BarrierPoint
// could not process this many regions and leaves "filtering or combining
// regions" to future work.
func buildUA(threads int, scale float64) *Program {
	b := newBuilder("npb-ua", threads)
	baseU := arrayBase(8, 0)
	baseA := arrayBase(8, 1)
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)

	init := b.kernel(Kernel{Name: "mesh_init", Pattern: Random,
		Base: baseU, WSet: per(256 * KB), BodyInstrs: 16, Accs: 6, WriteFrac: 0.9})
	phases := make([]*Kernel, 0, 6)
	specs := []struct {
		name    string
		pattern Pattern
		stride  uint64
		instrs  int
	}{
		{"transfer", Sequential, 0, 14},
		{"diffusion", Strided, 512, 18},
		{"adapt", Random, 0, 20},
		{"convect", Sequential, 0, 16},
		{"mortar", Strided, 2048, 15},
		{"utrans", Sequential, 0, 12},
	}
	for _, sp := range specs {
		phases = append(phases, b.kernel(Kernel{Name: sp.name, Pattern: sp.pattern,
			Stride: sp.stride, Base: baseA, WSet: per(256 * KB),
			BodyInstrs: sp.instrs, Accs: 5, WriteFrac: 0.4}))
	}

	b.region(Exec{K: init, Iters: n(2400)})
	b.region(Exec{K: init, Iters: n(1200)}, Exec{K: phases[0], Iters: n(600)})
	// 400 steps x 19 tiny regions + 2 setup regions + 1 final = 7603.
	for step := 0; step < 400; step++ {
		for r := 0; r < 19; r++ {
			k := phases[(step+r)%len(phases)]
			b.region(Exec{K: k, Iters: n(320)})
		}
	}
	b.region(Exec{K: phases[5], Iters: n(1200)})
	return b.build()
}

// buildEP models NPB EP (embarrassingly parallel): a single inter-barrier
// region of independent random-number work. The paper notes this workload
// class "does not apply to the BarrierPoint methodology" — with one region
// the pipeline degenerates gracefully to a single barrierpoint with
// multiplier 1 (i.e. no sampling benefit, full accuracy).
func buildEP(threads int, scale float64) *Program {
	b := newBuilder("npb-ep", threads)
	n := func(v int) int { return it(v, scale, threads) }
	per := perThread(threads)
	gauss := b.kernel(Kernel{Name: "gaussian_pairs", Pattern: Random,
		Base: arrayBase(9, 0), WSet: per(1 * MB),
		BodyInstrs: 34, Accs: 4, WriteFrac: 0.1, BranchProb: 0.3})
	b.region(Exec{K: gauss, Iters: n(64000)})
	return b.build()
}
