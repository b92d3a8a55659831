// Package sim implements a deterministic multi-core timing simulator: the
// substrate standing in for the paper's modified Sniper 5.0.
//
// The model is an interval-style approximation of a 4-wide superscalar core
// (dispatch-width base cost, a bounded outstanding-miss window providing
// memory-level parallelism, and a fixed branch mispredict penalty) on top of
// a full cache hierarchy: private L1I/L1D/L2 per core, a shared, inclusive
// L3 per socket with an MSI directory over the private caches, and a DRAM
// channel per socket with both fixed latency and bandwidth-induced queueing.
// Cores are interleaved in fixed round-robin cycle quanta, so shared-state
// interactions are deterministic and approximately time-ordered.
//
// # Cache sets
//
// Every level is the same structure (sets in cache.go): an array of 8-byte
// line tags and, beside it, an array of per-line payloads — the MSI state in
// L1I/L1D/L2, the directory entry (sharers, owner, dirty) in the LLC. The
// invariant of a set is that its resident lines are packed at the front in
// most- to least-recently-used order and every way after them holds
// invalidTag. LRU needs nothing else: a hit is a scan of at most Ways
// contiguous tags plus a move to the front, the victim of a full set is its
// last way, a set with an empty way evicts nothing, and invalidating a line
// closes the gap. There are no timestamps.
//
// Which physical way a line sits in was never observable: hits, victims and
// coherence actions depend only on which lines are resident, their payloads
// and their recency order, and that triple is what the sets store. Replacing
// the earlier timestamp-per-way arrays therefore moved no simulated
// statistic; sets_test.go keeps those arrays as the reference and checks the
// equivalence operation by operation.
//
// Two details of the access path look like oversights and are frozen,
// because changing either changes every simulated statistic:
//
//   - When an L2 eviction updates the victim's directory entry, fillL2 finds
//     the entry with lookup, not peek, so the LLC line of a line leaving a
//     private cache becomes the most recently used of its LLC set.
//   - On an LLC miss the victim is read first, its private copies are
//     back-invalidated (and its writeback charged) next, and only then is
//     the new line inserted.
//
// # Reuse
//
// A point simulation needs a machine nothing has run on, and gets one from
// a free list (Acquire, Release) rather than from New: Reset writes every
// tag, payload, predictor entry, clock, DRAM queue and counter back to what
// New allocates — TestReset compares the two field by field — so the result
// is the same and the megabytes of arrays are not garbage after each point.
package sim

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int // total capacity
	Ways      int // associativity
	Latency   int // access latency in cycles
}

// Sets returns the number of sets (SizeBytes / 64-byte lines / Ways).
func (c CacheConfig) Sets() int {
	s := c.SizeBytes / 64 / c.Ways
	if s < 1 {
		s = 1
	}
	return s
}

// Lines returns the total line capacity.
func (c CacheConfig) Lines() int { return c.SizeBytes / 64 }

// Config describes a simulated machine.
type Config struct {
	Sockets        int // processor sockets
	CoresPerSocket int // cores per socket

	FreqGHz           float64 // core clock
	IssueWidth        int     // dispatch width (instructions/cycle)
	ROB               int     // reorder buffer entries (reporting only)
	MLP               int     // max outstanding long-latency misses per core
	MispredictPenalty int     // branch mispredict penalty, cycles

	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig
	L3  CacheConfig // per socket, shared by its cores

	MemLatencyNs float64 // DRAM access latency
	MemBWGBs     float64 // DRAM bandwidth per socket, GB/s

	RemoteL3Extra int // extra cycles for a cross-socket L3/home access

	BarrierBase      int // barrier cost, cycles
	BarrierPerThread int // additional barrier cost per participating core

	QuantumCycles uint64 // round-robin interleaving quantum
}

// Cores returns the total core count.
func (c Config) Cores() int { return c.Sockets * c.CoresPerSocket }

// MemLatencyCycles converts DRAM latency to core cycles.
func (c Config) MemLatencyCycles() uint64 {
	return uint64(c.MemLatencyNs * c.FreqGHz)
}

// MemBusyCyclesPerLine is how many cycles one 64-byte line transfer occupies
// a socket's DRAM channel.
func (c Config) MemBusyCyclesPerLine() uint64 {
	bytesPerCycle := c.MemBWGBs / c.FreqGHz // GB/s over Gcycle/s = bytes/cycle
	if bytesPerCycle <= 0 {
		return 1
	}
	busy := uint64(64.0 / bytesPerCycle)
	if busy < 1 {
		busy = 1
	}
	return busy
}

// BarrierCycles is the global synchronization cost appended to each region.
func (c Config) BarrierCycles() uint64 {
	return uint64(c.BarrierBase + c.BarrierPerThread*c.Cores())
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Sockets < 1 || c.CoresPerSocket < 1:
		return fmt.Errorf("sim: need at least one socket and core, got %d×%d", c.Sockets, c.CoresPerSocket)
	case c.Cores() > 64:
		return fmt.Errorf("sim: directory sharer mask supports at most 64 cores, got %d", c.Cores())
	case c.IssueWidth < 1:
		return fmt.Errorf("sim: issue width must be >= 1, got %d", c.IssueWidth)
	case c.MLP < 1:
		return fmt.Errorf("sim: MLP must be >= 1, got %d", c.MLP)
	case c.FreqGHz <= 0:
		return fmt.Errorf("sim: frequency must be positive, got %g", c.FreqGHz)
	case c.QuantumCycles < 1:
		return fmt.Errorf("sim: quantum must be >= 1 cycle")
	}
	for _, cc := range []struct {
		name string
		c    CacheConfig
	}{{"L1I", c.L1I}, {"L1D", c.L1D}, {"L2", c.L2}, {"L3", c.L3}} {
		if cc.c.SizeBytes < 64 || cc.c.Ways < 1 {
			return fmt.Errorf("sim: cache %s misconfigured: %+v", cc.name, cc.c)
		}
		if cc.c.Sets()&(cc.c.Sets()-1) != 0 {
			return fmt.Errorf("sim: cache %s set count %d not a power of two", cc.name, cc.c.Sets())
		}
		if got := cc.c.Sets() * cc.c.Ways * 64; got != cc.c.SizeBytes {
			return fmt.Errorf("sim: cache %s is %d bytes but %d sets × %d ways of 64-byte lines hold %d", cc.name, cc.c.SizeBytes, cc.c.Sets(), cc.c.Ways, got)
		}
	}
	return nil
}

// TableI returns the paper's Table I machine with the given socket count
// (1 socket = 8 cores, 4 sockets = 32 cores).
func TableI(sockets int) Config {
	return Config{
		Sockets:           sockets,
		CoresPerSocket:    8,
		FreqGHz:           2.66,
		IssueWidth:        4,
		ROB:               128,
		MLP:               8,
		MispredictPenalty: 8,
		L1I:               CacheConfig{SizeBytes: 32 << 10, Ways: 4, Latency: 4},
		L1D:               CacheConfig{SizeBytes: 32 << 10, Ways: 8, Latency: 4},
		L2:                CacheConfig{SizeBytes: 256 << 10, Ways: 8, Latency: 8},
		L3:                CacheConfig{SizeBytes: 8 << 20, Ways: 16, Latency: 30},
		MemLatencyNs:      65,
		MemBWGBs:          8,
		RemoteL3Extra:     45,
		BarrierBase:       150,
		BarrierPerThread:  10,
		QuantumCycles:     10000,
	}
}

// Tiny returns a scaled-down machine for fast tests: same structure, small
// caches, low latencies.
func Tiny(cores int) Config {
	cfg := Config{
		Sockets:           1,
		CoresPerSocket:    cores,
		FreqGHz:           2.0,
		IssueWidth:        4,
		ROB:               64,
		MLP:               4,
		MispredictPenalty: 8,
		L1I:               CacheConfig{SizeBytes: 4 << 10, Ways: 2, Latency: 2},
		L1D:               CacheConfig{SizeBytes: 4 << 10, Ways: 4, Latency: 2},
		L2:                CacheConfig{SizeBytes: 32 << 10, Ways: 4, Latency: 6},
		L3:                CacheConfig{SizeBytes: 256 << 10, Ways: 8, Latency: 20},
		MemLatencyNs:      60,
		MemBWGBs:          8,
		RemoteL3Extra:     40,
		BarrierBase:       200,
		BarrierPerThread:  20,
		QuantumCycles:     5000,
	}
	if cores > 8 {
		cfg.Sockets = (cores + 7) / 8
		cfg.CoresPerSocket = cores / cfg.Sockets
	}
	return cfg
}
