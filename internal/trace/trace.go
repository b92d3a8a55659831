// Package trace defines the microarchitecture-independent execution trace
// model that all of BarrierPoint consumes.
//
// A Program is a barrier-synchronized multi-threaded application: an ordered
// sequence of inter-barrier Regions, each of which exposes one instruction
// and memory-access Stream per thread. The same streams are consumed by the
// profiler (BBV/LDV collection), the warmup capturer (MRU line tracking) and
// the timing simulator, which guarantees that signatures are functions of the
// program alone — never of the machine they are later simulated on.
package trace

// LineSize is the cache line size in bytes used throughout the system.
// The paper's Table I machines use 64-byte lines.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// LineAddr maps a byte address to its cache line address.
func LineAddr(addr uint64) uint64 { return addr >> LineShift }

// Access is a single data memory reference.
type Access struct {
	Addr  uint64 // byte address
	Write bool   // true for stores, false for loads
}

// BlockExec is one dynamic execution of a static basic block: the unit of
// work delivered by a Stream. Streams may reuse the Accs backing array
// between calls; consumers must finish with Accs before requesting the next
// block.
type BlockExec struct {
	Block  int      // static basic block identifier (program-unique)
	Instrs int      // instructions retired by this block execution
	Accs   []Access // data accesses issued by this block execution
	Branch bool     // block ends in a conditional branch
	Taken  bool     // branch outcome, meaningful only if Branch
}

// Stream yields the dynamic basic block sequence of one thread within one
// inter-barrier region.
type Stream interface {
	// Next fills be with the next block execution and reports whether one
	// was available. Once Next returns false the stream is exhausted and
	// dead: callers must not call Next again. Implementations may recycle
	// the stream's storage at that point (the replay cache pools its
	// stream headers), so a post-exhaustion Next can observe an unrelated
	// stream's state.
	Next(be *BlockExec) bool
}

// Err returns the error s ended on, once Next has returned false: a stream
// decoded from a recorded trace reports a corrupt chunk through an Err
// method, and a stream without one never fails.
func Err(s Stream) error {
	if es, ok := s.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

// CheckedRegion keeps the streams it hands out, so that the errors they end
// on outlive a consumer that has none of its own (sim.Machine.RunRegion,
// profile.Region). Unlike a Region, it is not safe for concurrent use.
type CheckedRegion struct {
	Region
	streams []Stream
}

func (r *CheckedRegion) Thread(tid int) Stream {
	r.streams = append(r.streams, r.Region.Thread(tid))
	return r.streams[len(r.streams)-1]
}

// Err returns the first error a stream handed out ended on.
func (r *CheckedRegion) Err() error {
	for _, s := range r.streams {
		if err := Err(s); err != nil {
			return err
		}
	}
	return nil
}

// Region is one inter-barrier region: the work done by every thread between
// two consecutive global barriers.
type Region interface {
	// Thread returns a fresh Stream for thread tid in [0, Threads).
	// Thread may be called multiple times; each call restarts the stream.
	// It is safe for concurrent use, and the streams it returns are
	// independent: the warmup pass tracks a region's threads on separate
	// goroutines.
	Thread(tid int) Stream
}

// Program is a barrier-synchronized multi-threaded application.
type Program interface {
	// Name identifies the workload (e.g. "npb-ft").
	Name() string
	// Threads is the number of application threads (= cores used).
	Threads() int
	// Regions is the number of inter-barrier regions. The parallel region
	// of interest is delimited by global barriers on both sides, so this
	// equals the dynamic barrier count of the ROI.
	Regions() int
	// Region returns region i in [0, Regions). Regions are independent
	// value objects; generating region i never requires generating i-1.
	Region(i int) Region
}

// EmptyStream is a Stream with no blocks.
type EmptyStream struct{}

// Next always reports false.
func (EmptyStream) Next(*BlockExec) bool { return false }

// SliceStream adapts a pre-materialized block slice into a Stream.
// It is primarily useful in tests.
type SliceStream struct {
	Blocks []BlockExec
	pos    int
}

// Next copies the next stored block into be.
func (s *SliceStream) Next(be *BlockExec) bool {
	if s.pos >= len(s.Blocks) {
		return false
	}
	*be = s.Blocks[s.pos]
	s.pos++
	return true
}

// SliceRegion is a Region backed by per-thread block slices, for tests.
type SliceRegion struct {
	Threads [][]BlockExec
}

// Thread returns a stream over the stored blocks of thread tid.
func (r *SliceRegion) Thread(tid int) Stream {
	return &SliceStream{Blocks: r.Threads[tid]}
}

// SliceProgram is a fully materialized Program, for tests.
type SliceProgram struct {
	ProgName   string
	NumThreads int
	Rgns       []*SliceRegion
}

// Name returns the program name.
func (p *SliceProgram) Name() string { return p.ProgName }

// Threads returns the thread count.
func (p *SliceProgram) Threads() int { return p.NumThreads }

// Regions returns the region count.
func (p *SliceProgram) Regions() int { return len(p.Rgns) }

// Region returns region i.
func (p *SliceProgram) Region(i int) Region { return p.Rgns[i] }

// CountInstrs drains a stream and returns its total instruction count.
func CountInstrs(s Stream) uint64 {
	var be BlockExec
	var n uint64
	for s.Next(&be) {
		n += uint64(be.Instrs)
	}
	return n
}

// RegionInstrs returns per-thread and total instruction counts of a region.
func RegionInstrs(r Region, threads int) (perThread []uint64, total uint64) {
	perThread = make([]uint64, threads)
	for t := 0; t < threads; t++ {
		perThread[t] = CountInstrs(r.Thread(t))
		total += perThread[t]
	}
	return perThread, total
}
