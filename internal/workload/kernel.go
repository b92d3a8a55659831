// Package workload provides deterministic, synthetic, barrier-synchronized
// multi-threaded programs standing in for the paper's NPB 3.3 (class A) and
// PARSEC 2.1 benchmarks.
//
// Each program is built from a small library of parallel kernels (streaming
// sweeps, strided sweeps, random gathers, reductions, compute loops) arranged
// in the per-benchmark phase schedules of the real codes: time-step loops
// over a handful of distinct solver phases, multigrid V-cycles whose levels
// share code but not working sets, and so on. Dynamic barrier counts match
// the paper's Figure 1 / Table III, and are independent of thread count.
//
// Every stream is a pure function of (kernel identity, thread id, thread
// count); re-generating a region always yields bit-identical traces, which
// is what makes BarrierPoint signatures microarchitecture-independent here.
package workload

import "barrierpoint/internal/trace"

// Pattern selects how a kernel generates data addresses.
type Pattern int

// Supported address generation patterns.
const (
	// Sequential sweeps the working set with unit (Stride-byte) steps.
	Sequential Pattern = iota
	// Strided sweeps the working set with a fixed multi-line stride.
	Strided
	// Random touches pseudo-random lines within the working set.
	Random
	// Reduction reads the thread's partition sequentially and writes a
	// small shared accumulation area, creating coherence traffic.
	Reduction
)

// Kernel describes one static parallel kernel (an OpenMP parallel loop in
// the real benchmarks). A kernel owns its static basic block identifiers,
// so two regions running the same kernel have identical code signatures.
type Kernel struct {
	ID         int     // unique kernel id; block ids are derived from it
	Name       string  // human-readable phase name, e.g. "x_solve"
	BodyInstrs int     // instructions per loop iteration (>= Accs+2)
	Accs       int     // data accesses per loop iteration
	BranchProb float64 // >0: emit a data-dependent branch block per iteration
	Pattern    Pattern
	Base       uint64  // base byte address of the kernel's array space
	WSet       uint64  // working-set bytes: per thread if !Shared, total if Shared
	Stride     uint64  // bytes between consecutive accesses (Sequential/Strided)
	WriteFrac  float64 // fraction of accesses that are stores
	Shared     bool    // threads share one working set instead of partitions
	SharedAcc  uint64  // Reduction: base address of the shared accumulator
	// PartStride is the per-thread partition spacing for non-shared
	// kernels; 0 means WSet. Kernels touching a subset of an array that
	// other kernels partition with a larger working set must declare the
	// array's partition stride here, or thread ranges would alias.
	PartStride uint64
}

// Sub-block ids within a kernel: loop body, outer loop bookkeeping, and the
// optional data-dependent branch block.
const (
	subBody   = 0
	subOuter  = 1
	subBranch = 2
	blockStep = 16 // ids per kernel
)

// outerEvery controls how often the outer-loop bookkeeping block fires.
const outerEvery = 8

// Exec is one execution of a kernel inside a region, with a length scale.
// Scale multiplies the iteration count, modelling regions that run the same
// code for a different number of iterations (the source of the paper's
// non-integer multipliers, §III-D).
type Exec struct {
	K     *Kernel
	Iters int     // total iterations across all threads at Scale 1
	Scale float64 // iteration-count multiplier; 0 means 1 (unscaled)
	// Imbalance optionally skews per-thread iteration counts; entry t%len
	// multiplies thread t's share. nil means perfectly balanced.
	Imbalance []float64
}

// itersFor returns the iteration count for one thread.
func (e Exec) itersFor(tid, threads int) int {
	scale := e.Scale
	if scale == 0 {
		scale = 1
	}
	per := float64(e.Iters) * scale / float64(threads)
	if e.Imbalance != nil {
		per *= e.Imbalance[tid%len(e.Imbalance)]
	}
	n := int(per)
	if n < 1 {
		n = 1
	}
	return n
}

// xorshift64 is the deterministic PRNG used by kernel streams.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

// seedFor derives the stream PRNG seed from kernel identity and thread id
// only — never from the region index — so that re-occurrences of a kernel
// produce identical traces.
func seedFor(kid, tid int) xorshift64 {
	s := uint64(kid)*0x9E3779B97F4A7C15 + uint64(tid)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	if s == 0 {
		s = 1
	}
	return xorshift64(s)
}

// kernelStream generates the dynamic block sequence of one thread running
// one kernel execution.
type kernelStream struct {
	k       *Kernel
	tid     int
	threads int
	iters   int
	iter    int
	pos     uint64 // access position within the working set sweep
	rng     xorshift64
	pending int  // sub-block emission state within the current iteration
	outer   bool // outer-loop block already emitted for this iteration
	accs    []trace.Access
}

func newKernelStream(e Exec, tid, threads int) *kernelStream {
	s := &kernelStream{
		k:       e.K,
		tid:     tid,
		threads: threads,
		iters:   e.itersFor(tid, threads),
		rng:     seedFor(e.K.ID, tid),
		accs:    make([]trace.Access, 0, e.K.Accs),
	}
	// Shared sequential/strided sweeps are cooperative: each thread starts
	// at its own slice of the shared working set.
	if e.K.Shared && (e.K.Pattern == Sequential || e.K.Pattern == Strided) {
		stride := e.K.Stride
		if stride == 0 {
			stride = trace.LineSize
		}
		lines := e.K.WSet / stride
		if lines > 0 {
			s.pos = uint64(tid) * (lines / uint64(threads))
		}
	}
	return s
}

// base returns the start of this thread's address range.
func (s *kernelStream) base() uint64 {
	if s.k.Shared {
		return s.k.Base
	}
	stride := s.k.PartStride
	if stride == 0 {
		stride = s.k.WSet
	}
	return s.k.Base + uint64(s.tid)*stride
}

// wset returns the bytes this thread sweeps over.
func (s *kernelStream) wset() uint64 {
	w := s.k.WSet
	if w < trace.LineSize {
		w = trace.LineSize
	}
	return w
}

func (s *kernelStream) genAccs() []trace.Access {
	k := s.k
	s.accs = s.accs[:0]
	base, wset := s.base(), s.wset()
	stride := k.Stride
	if stride == 0 {
		stride = trace.LineSize
	}
	lines := wset / stride
	if lines == 0 {
		lines = 1
	}
	for j := 0; j < k.Accs; j++ {
		var off uint64
		switch k.Pattern {
		case Sequential:
			off = (s.pos % lines) * stride
			s.pos++
		case Strided:
			// Column-major sweep of a 2-D array with Stride-byte rows:
			// consecutive accesses jump a whole row apart, every line is
			// eventually covered, and each line is revisited once per
			// column at a reuse distance of ~rows lines — the locality
			// profile of real transposed/directional solver sweeps.
			rows := stride / trace.LineSize
			if rows < 2 {
				rows = 2
			}
			rowBytes := wset / rows / trace.LineSize * trace.LineSize
			if rowBytes < trace.LineSize {
				rowBytes = trace.LineSize
			}
			elemsPerRow := rowBytes / 8
			e := s.pos
			s.pos++
			row := e % rows
			col := (e / rows) % elemsPerRow
			off = row*rowBytes + col*8
		case Random:
			off = (s.rng.next() % lines) * stride
		case Reduction:
			// Reads stream the partition; the final access of each
			// iteration updates the shared accumulator instead.
			if j == k.Accs-1 {
				line := s.rng.next() % 8
				s.accs = append(s.accs, trace.Access{
					Addr:  k.SharedAcc + line*trace.LineSize,
					Write: true,
				})
				continue
			}
			off = (s.pos % lines) * stride
			s.pos++
		}
		write := false
		if k.WriteFrac > 0 {
			write = s.rng.next()&1023 < uint64(k.WriteFrac*1024)
		}
		s.accs = append(s.accs, trace.Access{Addr: base + off, Write: write})
	}
	return s.accs
}

// Next implements trace.Stream.
func (s *kernelStream) Next(be *trace.BlockExec) bool {
	k := s.k
	if s.pending == subBranch {
		s.pending = 0
		s.iter++
		s.outer = false
		taken := s.rng.next()&1023 < uint64(k.BranchProb*1024)
		*be = trace.BlockExec{
			Block:  k.ID*blockStep + subBranch,
			Instrs: 3,
			Accs:   nil,
			Branch: true,
			Taken:  taken,
		}
		return true
	}
	if s.iter >= s.iters {
		return false
	}
	if s.iter%outerEvery == 0 && s.iter > 0 && !s.outer {
		// Outer-loop bookkeeping block, once per outerEvery iterations.
		s.outer = true
		*be = trace.BlockExec{
			Block:  k.ID*blockStep + subOuter,
			Instrs: 4,
			Branch: true,
			Taken:  true,
		}
		return true
	}
	// Loop body block.
	if k.BranchProb > 0 {
		s.pending = subBranch
	} else {
		s.iter++
		s.outer = false
	}
	*be = trace.BlockExec{
		Block:  k.ID*blockStep + subBody,
		Instrs: k.BodyInstrs,
		Accs:   s.genAccs(),
		Branch: true,
		Taken:  s.iter < s.iters, // loop-back branch: not taken on exit
	}
	return true
}

// seqStream chains the streams of several kernel executions.
type seqStream struct {
	streams []trace.Stream
	idx     int
}

// Next implements trace.Stream.
func (s *seqStream) Next(be *trace.BlockExec) bool {
	for s.idx < len(s.streams) {
		if s.streams[s.idx].Next(be) {
			return true
		}
		s.idx++
	}
	return false
}

// Region is an inter-barrier region: a list of kernel executions each
// thread runs back to back.
type Region struct {
	Execs   []Exec
	threads int
}

// Thread implements trace.Region.
func (r *Region) Thread(tid int) trace.Stream {
	if len(r.Execs) == 1 {
		return newKernelStream(r.Execs[0], tid, r.threads)
	}
	ss := make([]trace.Stream, len(r.Execs))
	for i, e := range r.Execs {
		ss[i] = newKernelStream(e, tid, r.threads)
	}
	return &seqStream{streams: ss}
}

// Program is a schedule of regions instantiated for a thread count.
type Program struct {
	name    string
	threads int
	regions []*Region
}

// Name implements trace.Program.
func (p *Program) Name() string { return p.name }

// Threads implements trace.Program.
func (p *Program) Threads() int { return p.threads }

// Regions implements trace.Program.
func (p *Program) Regions() int { return len(p.regions) }

// Region implements trace.Program.
func (p *Program) Region(i int) trace.Region { return p.regions[i] }

// builder accumulates a region schedule.
type builder struct {
	name    string
	threads int
	regions []*Region
	nextID  int
	// jitter is the amplitude of deterministic per-region iteration-count
	// variation ("convergence noise"): real solver iterations are never
	// bit-identical, and this is what produces the paper's fractional
	// multipliers (Table III: 4.6, 399.9, ...).
	jitter float64
}

func newBuilder(name string, threads int) *builder {
	return &builder{name: name, threads: threads, nextID: 1, jitter: 0.02}
}

// kernel allocates a kernel with a unique id.
func (b *builder) kernel(k Kernel) *Kernel {
	k.ID = b.nextID
	b.nextID++
	return &k
}

// jitterFactor derives a deterministic multiplier in [1-jitter, 1+jitter]
// from a region index.
func (b *builder) jitterFactor(region int) float64 {
	h := uint64(region)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	h ^= h >> 31
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 29
	u := float64(h>>11) / (1 << 53) // [0,1)
	return 1 + b.jitter*(2*u-1)
}

// region appends a region running the given executions, applying the
// per-region length jitter.
func (b *builder) region(execs ...Exec) {
	jf := b.jitterFactor(len(b.regions))
	for i := range execs {
		if execs[i].Scale == 0 {
			execs[i].Scale = 1
		}
		execs[i].Scale *= jf
	}
	b.regions = append(b.regions, &Region{Execs: execs, threads: b.threads})
}

func (b *builder) build() *Program {
	return &Program{name: b.name, threads: b.threads, regions: b.regions}
}

var _ trace.Program = (*Program)(nil)
var _ trace.Region = (*Region)(nil)
var _ trace.Stream = (*kernelStream)(nil)
