package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"barrierpoint/internal/trace"
)

// Counters aggregates event counts. All counts are machine-wide unless
// stated otherwise.
type Counters struct {
	Instrs      uint64 // instructions retired
	L1DAccesses uint64
	L1DMisses   uint64
	L1IMisses   uint64
	L2Misses    uint64 // private-hierarchy misses reaching the LLC
	L3Misses    uint64 // LLC misses (DRAM line fetches)
	DRAMAccs    uint64 // DRAM transfers: fetches plus dirty writebacks
	Upgrades    uint64 // S→M upgrades requiring directory action
	Invals      uint64 // private lines invalidated by coherence
	RemoteL3    uint64 // accesses homed on another socket
	Mispredicts uint64
}

func (c *Counters) sub(prev Counters) Counters {
	return Counters{
		Instrs:      c.Instrs - prev.Instrs,
		L1DAccesses: c.L1DAccesses - prev.L1DAccesses,
		L1DMisses:   c.L1DMisses - prev.L1DMisses,
		L1IMisses:   c.L1IMisses - prev.L1IMisses,
		L2Misses:    c.L2Misses - prev.L2Misses,
		L3Misses:    c.L3Misses - prev.L3Misses,
		DRAMAccs:    c.DRAMAccs - prev.DRAMAccs,
		Upgrades:    c.Upgrades - prev.Upgrades,
		Invals:      c.Invals - prev.Invals,
		RemoteL3:    c.RemoteL3 - prev.RemoteL3,
		Mispredicts: c.Mispredicts - prev.Mispredicts,
	}
}

// RegionResult reports the detailed simulation of one inter-barrier region.
type RegionResult struct {
	Cycles       uint64   // region duration including the closing barrier
	TimeNs       float64  // Cycles converted at the core clock
	ThreadInstrs []uint64 // instructions retired per thread
	Counters     Counters // event deltas for this region
}

// Instrs returns the aggregate instruction count.
func (r RegionResult) Instrs() uint64 { return r.Counters.Instrs }

// IPC returns aggregate instructions per cycle over the region.
func (r RegionResult) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Counters.Instrs) / float64(r.Cycles)
}

// DRAMAPKI returns DRAM accesses per kilo-instruction.
func (r RegionResult) DRAMAPKI() float64 {
	if r.Counters.Instrs == 0 {
		return 0
	}
	return 1000 * float64(r.Counters.DRAMAccs) / float64(r.Counters.Instrs)
}

// core is the per-core microarchitectural state.
type core struct {
	id     int
	socket int
	cycle  uint64 // local clock
	frac   uint64 // sub-cycle dispatch remainder, 1/256 cycle units

	l1i *cache
	l1d *cache
	l2  *cache
	bp  *branchPredictor

	// outstanding holds completion cycles of in-flight long-latency
	// accesses, bounding memory-level parallelism.
	outstanding []uint64
}

// Machine is a simulated multi-core system. Microarchitectural state
// (caches, predictors, DRAM queues, clocks) persists across RunRegion
// calls, so running all regions in order is a full detailed simulation.
type Machine struct {
	cfg  Config
	core []*core
	llc  []*llcSlice // one per socket

	ctr        Counters
	functional bool // true during warmup replay: no timing, no counters

	memLatency uint64
	memBusy    uint64
}

// New builds a machine from cfg. It panics on invalid configuration
// (configuration is programmer input, not runtime data).
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{
		cfg:        cfg,
		memLatency: cfg.MemLatencyCycles(),
		memBusy:    cfg.MemBusyCyclesPerLine(),
	}
	for s := 0; s < cfg.Sockets; s++ {
		m.llc = append(m.llc, newLLC(cfg.L3))
	}
	for c := 0; c < cfg.Cores(); c++ {
		m.core = append(m.core, &core{
			id:          c,
			socket:      c / cfg.CoresPerSocket,
			l1i:         newCache(cfg.L1I),
			l1d:         newCache(cfg.L1D),
			l2:          newCache(cfg.L2),
			bp:          newBranchPredictor(),
			outstanding: make([]uint64, 0, cfg.MLP),
		})
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Counters returns cumulative event counts since construction or Reset.
func (m *Machine) Counters() Counters { return m.ctr }

// free is the process-wide list of idle machines by configuration (see the
// package comment): at most as many per configuration as ever ran at once.
var free = struct {
	sync.Mutex
	idle          map[Config][]*Machine
	built, reused uint64
}{idle: make(map[Config][]*Machine)}

// Acquire returns a machine in the state of New(cfg): an idle one, Reset, if
// the free list has one, else a new one. Hand it back with Release.
func Acquire(cfg Config) *Machine {
	free.Lock()
	l := free.idle[cfg]
	if len(l) == 0 {
		free.built++
		free.Unlock()
		return New(cfg)
	}
	m := l[len(l)-1]
	free.idle[cfg], free.reused = l[:len(l)-1], free.reused+1
	free.Unlock()
	m.Reset()
	return m
}

// Release puts m, which the caller is done with, on the free list.
func Release(m *Machine) {
	free.Lock()
	free.idle[m.cfg] = append(free.idle[m.cfg], m)
	free.Unlock()
}

// FreeListStats counts the machines Acquire has built and has reused.
func FreeListStats() (built, reused uint64) {
	free.Lock()
	defer free.Unlock()
	return free.built, free.reused
}

// Reset restores the machine to its post-construction state.
func (m *Machine) Reset() {
	for _, c := range m.core {
		c.l1i.reset()
		c.l1d.reset()
		c.l2.reset()
		c.bp.reset()
		c.cycle = 0
		c.frac = 0
		c.outstanding = c.outstanding[:0]
	}
	for _, l := range m.llc {
		l.reset()
	}
	m.ctr = Counters{}
	m.functional = false
}

// homeSocket maps a line address to the socket owning its LLC slice and
// directory entry. Bits above the set index spread lines evenly.
func (m *Machine) homeSocket(line uint64) int {
	if m.cfg.Sockets == 1 {
		return 0
	}
	return int((line >> 14) % uint64(m.cfg.Sockets))
}

// invalidatePrivate removes a line from core c's private hierarchy,
// returning true if a modified copy was destroyed (i.e. data had to be
// written back to the LLC).
func (m *Machine) invalidatePrivate(c int, line uint64) (wasModified bool) {
	co := m.core[c]
	s1 := co.l1d.invalidate(line)
	s2 := co.l2.invalidate(line)
	if s1 != stateInvalid || s2 != stateInvalid {
		if !m.functional {
			m.ctr.Invals++
		}
	}
	return s1 == stateModified || s2 == stateModified
}

// llcAccess handles a private-hierarchy miss: directory actions, LLC
// lookup, DRAM on miss, and inclusive back-invalidation on LLC eviction.
// It returns the latency beyond the private levels.
func (m *Machine) llcAccess(c int, line uint64, write bool, now uint64) uint64 {
	home := m.homeSocket(line)
	slice := m.llc[home]
	lat := uint64(m.cfg.L3.Latency)
	if home != m.core[c].socket {
		lat += uint64(m.cfg.RemoteL3Extra)
		if !m.functional {
			m.ctr.RemoteL3++
		}
	}

	if dl := slice.lookup(line); dl != nil {
		// Present in LLC. Resolve coherence with other private caches.
		if dl.owner >= 0 && int(dl.owner) != c {
			// Dirty in another core: fetch via writeback.
			m.invalidatePrivate(int(dl.owner), line)
			dl.dirty = true
			dl.sharers &^= 1 << uint(dl.owner)
			dl.owner = -1
			lat += uint64(m.cfg.L2.Latency) + uint64(m.cfg.L3.Latency)/2
		}
		if write {
			// Invalidate all other sharers; this core becomes owner.
			mask := dl.sharers &^ (1 << uint(c))
			for mask != 0 {
				o := trailingZeros(mask)
				mask &^= 1 << uint(o)
				m.invalidatePrivate(o, line)
			}
			dl.sharers = 1 << uint(c)
			dl.owner = int8(c)
			dl.dirty = true
		} else {
			dl.sharers |= 1 << uint(c)
			if dl.owner == int8(c) {
				// Still owner from an earlier write.
			} else {
				dl.owner = -1
			}
		}
		return lat
	}

	// LLC miss: fetch the line from DRAM.
	if !m.functional {
		m.ctr.L3Misses++
		m.ctr.DRAMAccs++
		lat += slice.memAccess(now, m.memLatency, m.memBusy)
	}
	if vtag, v, full := slice.victim(line); full {
		// Inclusive LLC: destroy all private copies of the victim.
		mask := v.sharers
		dirty := v.dirty
		for mask != 0 {
			o := trailingZeros(mask)
			mask &^= 1 << uint(o)
			if m.invalidatePrivate(o, vtag) {
				dirty = true
			}
		}
		if dirty && !m.functional {
			m.ctr.DRAMAccs++ // writeback to memory
			slice.memAccess(now, 0, m.memBusy)
		}
	}
	fresh := dirEntry{sharers: 1 << uint(c), owner: -1, dirty: write}
	if write {
		fresh.owner = int8(c)
	}
	slice.insert(line, fresh)
	return lat
}

// privateFill inserts a line into a private cache, handling victim
// writeback bookkeeping (victim data moves down: L1→L2 or L2→LLC).
func (m *Machine) fillL2(c int, line uint64, state uint8) {
	co := m.core[c]
	victim, vstate, evicted := co.l2.insert(line, state)
	if !evicted {
		return
	}
	// L2 inclusive of L1: drop the L1 copy, inheriting its dirtiness.
	if co.l1d.invalidate(victim) == stateModified {
		vstate = stateModified
	}
	// Update the directory: this core no longer holds victim. The lookup
	// makes the victim's LLC line most recently used; that is frozen
	// behaviour (see the package comment), not an oversight to peek away.
	home := m.homeSocket(victim)
	if dl := m.llc[home].lookup(victim); dl != nil {
		dl.sharers &^= 1 << uint(c)
		if dl.owner == int8(c) {
			dl.owner = -1
		}
		if vstate == stateModified {
			dl.dirty = true
		}
	}
	// If the LLC already evicted the victim the data is lost to memory;
	// that writeback was accounted when the LLC victimized it.
}

func (m *Machine) fillL1D(c int, line uint64, state uint8) {
	co := m.core[c]
	victim, vstate, evicted := co.l1d.insert(line, state)
	if !evicted {
		return
	}
	if vstate == stateModified {
		// Write back into L2 (which holds the line by inclusion).
		if l2 := co.l2.peek(victim); l2 != nil {
			*l2 = stateModified
		}
	}
}

// dataAccess runs one data reference through the hierarchy and returns its
// total latency in cycles. now is the issuing core's current cycle.
func (m *Machine) dataAccess(c int, addr uint64, write bool, now uint64) uint64 {
	line := trace.LineAddr(addr)
	co := m.core[c]
	if !m.functional {
		m.ctr.L1DAccesses++
	}

	// l points at the front of the line's set and is written after
	// llcAccess returns. Only a lookup or insert on that same private set
	// could move the line, and llcAccess does neither: by inclusion the
	// upgrade hits in the LLC, which invalidates other cores' copies only
	// (and an invalidate never moves the front of a set).
	if l := co.l1d.lookup(line); l != nil {
		if write && *l != stateModified {
			// Upgrade through the directory.
			if !m.functional {
				m.ctr.Upgrades++
			}
			lat := m.llcAccess(c, line, true, now)
			*l = stateModified
			if l2 := co.l2.peek(line); l2 != nil {
				*l2 = stateModified
			}
			return uint64(m.cfg.L1D.Latency) + lat
		}
		return uint64(m.cfg.L1D.Latency)
	}
	if !m.functional {
		m.ctr.L1DMisses++
	}

	if l := co.l2.lookup(line); l != nil {
		if write && *l != stateModified {
			if !m.functional {
				m.ctr.Upgrades++
			}
			lat := m.llcAccess(c, line, true, now)
			*l = stateModified
			m.fillL1D(c, line, stateModified)
			return uint64(m.cfg.L2.Latency) + lat
		}
		m.fillL1D(c, line, *l)
		return uint64(m.cfg.L2.Latency)
	}
	if !m.functional {
		m.ctr.L2Misses++
	}

	lat := uint64(m.cfg.L2.Latency) + m.llcAccess(c, line, write, now)
	st := stateShared
	if write {
		st = stateModified
	}
	m.fillL2(c, line, st)
	m.fillL1D(c, line, st)
	return lat
}

// codeBase places instruction lines far above any workload data.
const codeBase = uint64(1) << 56

// ifetch models the instruction fetch of one basic block through the L1I.
// Misses are charged a flat L2 latency (instruction lines are not kept
// coherent; they are read-only).
func (m *Machine) ifetch(c int, block int) uint64 {
	line := trace.LineAddr(codeBase + uint64(block)*trace.LineSize)
	co := m.core[c]
	if co.l1i.lookup(line) != nil {
		return 0
	}
	if !m.functional {
		m.ctr.L1IMisses++
	}
	co.l1i.insert(line, stateShared)
	return uint64(m.cfg.L2.Latency)
}

// execBlock advances core c's clock across one basic block execution.
func (m *Machine) execBlock(c int, be *trace.BlockExec) {
	co := m.core[c]
	m.ctr.Instrs += uint64(be.Instrs)

	// Dispatch: instrs/width cycles, accumulated with 1/256 precision.
	co.frac += uint64(be.Instrs) * 256 / uint64(m.cfg.IssueWidth)
	co.cycle += co.frac >> 8
	co.frac &= 255

	co.cycle += m.ifetch(c, be.Block)

	l1lat := uint64(m.cfg.L1D.Latency)
	for i := range be.Accs {
		a := &be.Accs[i]
		lat := m.dataAccess(c, a.Addr, a.Write, co.cycle)
		if lat <= l1lat {
			continue // pipelined L1 hit: no stall
		}
		// Long-latency access: enters the outstanding-miss window.
		if len(co.outstanding) >= m.cfg.MLP {
			// Window full: stall until the earliest miss returns.
			earliest := 0
			for j := 1; j < len(co.outstanding); j++ {
				if co.outstanding[j] < co.outstanding[earliest] {
					earliest = j
				}
			}
			if co.outstanding[earliest] > co.cycle {
				co.cycle = co.outstanding[earliest]
			}
			co.outstanding[earliest] = co.outstanding[len(co.outstanding)-1]
			co.outstanding = co.outstanding[:len(co.outstanding)-1]
		}
		co.outstanding = append(co.outstanding, co.cycle+lat)
	}

	if be.Branch {
		if co.bp.predict(be.Block, be.Taken) {
			m.ctr.Mispredicts++
			co.cycle += uint64(m.cfg.MispredictPenalty)
		}
	}
}

// drain waits for core c's outstanding misses (barrier semantics).
func (m *Machine) drain(c int) {
	co := m.core[c]
	for _, t := range co.outstanding {
		if t > co.cycle {
			co.cycle = t
		}
	}
	co.outstanding = co.outstanding[:0]
}

// RunRegion simulates one inter-barrier region in detail: every thread's
// stream runs on its core, interleaved in round-robin cycle quanta; the
// region ends with a global barrier. Machine state persists, so calling
// RunRegion for every region of a program in order is the full detailed
// ("ground truth") simulation.
func (m *Machine) RunRegion(r trace.Region) RegionResult {
	n := m.cfg.Cores()
	// All cores re-start together at the latest core clock (barrier
	// semantics from the previous region, or zero on a fresh machine).
	var start uint64
	for _, co := range m.core {
		if co.cycle > start {
			start = co.cycle
		}
	}
	prev := m.ctr
	threadInstrs := make([]uint64, n)

	streams := make([]trace.Stream, n)
	done := make([]bool, n)
	active := 0
	for t := 0; t < n; t++ {
		streams[t] = r.Thread(t)
		m.core[t].cycle = start
		m.core[t].frac = 0
		active++
	}

	var be trace.BlockExec
	quantumEnd := start + m.cfg.QuantumCycles
	for active > 0 {
		for c := 0; c < n; c++ {
			if done[c] {
				continue
			}
			co := m.core[c]
			for co.cycle < quantumEnd {
				if !streams[c].Next(&be) {
					m.drain(c)
					done[c] = true
					active--
					break
				}
				threadInstrs[c] += uint64(be.Instrs)
				m.execBlock(c, &be)
			}
		}
		quantumEnd += m.cfg.QuantumCycles
	}

	var end uint64
	for _, co := range m.core {
		if co.cycle > end {
			end = co.cycle
		}
	}
	end += m.cfg.BarrierCycles()
	for _, co := range m.core {
		co.cycle = end
	}

	cycles := end - start
	return RegionResult{
		Cycles:       cycles,
		TimeNs:       float64(cycles) / m.cfg.FreqGHz,
		ThreadInstrs: threadInstrs,
		Counters:     m.ctr.sub(prev),
	}
}

// WarmAccess replays one access functionally: caches and directory update
// through the normal coherent path, but no cycles pass and no counters
// move. line is a line address (not a byte address).
func (m *Machine) WarmAccess(c int, line uint64, write bool) {
	m.functional = true
	m.dataAccess(c, line<<trace.LineShift, write, m.core[c].cycle)
	m.functional = false
}

// CheckInclusion verifies the inclusive-hierarchy invariant: every line in
// a private L1D/L2 must be present in its home LLC slice with this core in
// the sharer mask. It is used by tests and returns the first violation.
func (m *Machine) CheckInclusion() error {
	for _, co := range m.core {
		for _, pc := range []*cache{co.l1d, co.l2} {
			for _, line := range pc.tags {
				if line == invalidTag {
					continue
				}
				dl := m.llc[m.homeSocket(line)].peek(line)
				if dl == nil {
					return fmt.Errorf("sim: core %d holds line %#x absent from LLC", co.id, line)
				}
				if dl.sharers&(1<<uint(co.id)) == 0 {
					return fmt.Errorf("sim: core %d holds line %#x but directory mask %#x omits it", co.id, line, dl.sharers)
				}
			}
		}
	}
	return nil
}

// trailingZeros returns the index of the lowest set bit of x (x != 0).
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// Introspection helpers: cache occupancy and content queries, used by tests
// and warmup validation tooling.

// L2Occupancy returns the number of valid lines in core c's L2.
func (m *Machine) L2Occupancy(c int) int { return m.core[c].l2.occupancy() }

// LLCOccupancy returns the number of valid lines in socket s's LLC slice.
func (m *Machine) LLCOccupancy(s int) int { return m.llc[s].occupancy() }

// L2Has reports whether core c's L2 holds the given line address.
func (m *Machine) L2Has(c int, line uint64) bool { return m.core[c].l2.peek(line) != nil }

// L1DHas reports whether core c's L1D holds the given line address.
func (m *Machine) L1DHas(c int, line uint64) bool { return m.core[c].l1d.peek(line) != nil }

// WarmRegion functionally executes an entire region: caches, directory,
// branch predictors and instruction caches update through the normal paths,
// but no cycles pass and no counters move. It implements MRRL-style
// previous-region warmup for core structures ahead of a short barrierpoint.
// Threads are interleaved round-robin in small block chunks so shared-cache
// contents end up mixed across cores, as they would under concurrent
// execution.
func (m *Machine) WarmRegion(r trace.Region) {
	m.functional = true
	defer func() { m.functional = false }()

	const chunk = 32 // block executions per thread per turn
	n := m.cfg.Cores()
	streams := make([]trace.Stream, n)
	done := make([]bool, n)
	active := n
	for c := 0; c < n; c++ {
		streams[c] = r.Thread(c)
	}
	var be trace.BlockExec
	for active > 0 {
		for c := 0; c < n; c++ {
			if done[c] {
				continue
			}
			for b := 0; b < chunk; b++ {
				if !streams[c].Next(&be) {
					done[c] = true
					active--
					break
				}
				m.ifetch(c, be.Block)
				for i := range be.Accs {
					m.dataAccess(c, be.Accs[i].Addr, be.Accs[i].Write, m.core[c].cycle)
				}
				if be.Branch {
					m.core[c].bp.predict(be.Block, be.Taken)
				}
			}
		}
	}
}
