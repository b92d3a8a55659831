package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"barrierpoint/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := TableI(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("Table I config invalid: %v", err)
	}
	for _, cores := range []int{1, 2, 4, 8, 16, 32} {
		if err := Tiny(cores).Validate(); err != nil {
			t.Errorf("Tiny(%d) invalid: %v", cores, err)
		}
	}
	for sockets := 1; sockets <= 4; sockets++ {
		if err := TableI(sockets).Validate(); err != nil {
			t.Errorf("TableI(%d) invalid: %v", sockets, err)
		}
	}
	cases := []func(*Config){
		func(c *Config) { c.Sockets = 0 },
		func(c *Config) { c.CoresPerSocket = 0 },
		func(c *Config) { c.Sockets = 9; c.CoresPerSocket = 8 }, // > 64 cores
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.MLP = 0 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.QuantumCycles = 0 },
		func(c *Config) { c.L1D.Ways = 0 },
		func(c *Config) { c.L2.SizeBytes = 96 << 10 }, // non-power-of-two sets
		// Capacity the sets do not model: Lines() would disagree with them.
		func(c *Config) { c.L3.SizeBytes += 64 },                            // a line over
		func(c *Config) { c.L1D.SizeBytes = 32<<10 + 32 },                   // not whole lines
		func(c *Config) { c.L1I = CacheConfig{SizeBytes: 3 * 64, Ways: 2} }, // 1 set × 2 ways ≠ 3 lines
		func(c *Config) { c.L2 = CacheConfig{SizeBytes: 64, Ways: 4} },      // fewer lines than ways
	}
	for i, mut := range cases {
		c := TableI(1)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestConfigDerived(t *testing.T) {
	c := TableI(1)
	if c.Cores() != 8 {
		t.Errorf("Cores = %d", c.Cores())
	}
	if c4 := TableI(4); c4.Cores() != 32 {
		t.Errorf("4-socket Cores = %d", c4.Cores())
	}
	if got := c.MemLatencyCycles(); got != 172 {
		t.Errorf("MemLatencyCycles = %d", got)
	}
	if c.MemBusyCyclesPerLine() == 0 {
		t.Error("zero bus occupancy")
	}
	if c.L3.Lines() != (8<<20)/64 {
		t.Errorf("L3 lines = %d", c.L3.Lines())
	}
	if c.L1D.Sets() != 64 {
		t.Errorf("L1D sets = %d", c.L1D.Sets())
	}
}

func TestCacheInsertLookup(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 8 * 64, Ways: 2, Latency: 1}) // 4 sets × 2 ways
	if c.lookup(5) != nil {
		t.Fatal("lookup on empty cache hit")
	}
	c.insert(5, stateShared)
	l := c.lookup(5)
	if l == nil || *l != stateShared {
		t.Fatal("inserted line not found")
	}
	if c.occupancy() != 1 {
		t.Errorf("occupancy = %d", c.occupancy())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 2 * 64, Ways: 2, Latency: 1}) // 1 set × 2 ways
	c.insert(10, stateShared)
	c.insert(20, stateShared)
	c.lookup(10) // refresh 10; 20 becomes LRU
	victim, vstate, evicted := c.insert(30, stateModified)
	if !evicted || victim != 20 || vstate != stateShared {
		t.Fatalf("evicted %d (%d, %v), want 20", victim, vstate, evicted)
	}
	if c.lookup(10) == nil || c.lookup(30) == nil || c.lookup(20) != nil {
		t.Error("post-eviction contents wrong")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newCache(CacheConfig{SizeBytes: 4 * 64, Ways: 4, Latency: 1})
	c.insert(7, stateModified)
	if st := c.invalidate(7); st != stateModified {
		t.Errorf("invalidate returned %d", st)
	}
	if c.lookup(7) != nil {
		t.Error("line still present after invalidate")
	}
	if st := c.invalidate(7); st != stateInvalid {
		t.Errorf("double invalidate returned %d", st)
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	b := newBranchPredictor()
	miss := 0
	for i := 0; i < 1000; i++ {
		if b.predict(42, true) {
			miss++
		}
	}
	if miss > 20 {
		t.Errorf("loop branch mispredicted %d/1000 times", miss)
	}
	// Alternating unpredictable-ish pattern on a fresh predictor should
	// mispredict much more than a constant one.
	b2 := newBranchPredictor()
	missAlt := 0
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		if b2.predict(42, rng.Intn(2) == 0) {
			missAlt++
		}
	}
	if missAlt < 5*miss {
		t.Errorf("random pattern (%d misses) not clearly worse than loop (%d)", missAlt, miss)
	}
}

// seqRegion builds a single-kernel test region: each thread sweeps lines
// [tid*linesPer, (tid+1)*linesPer) `sweeps` times.
func seqRegion(threads, linesPer, sweeps int, write bool) *trace.SliceRegion {
	r := &trace.SliceRegion{Threads: make([][]trace.BlockExec, threads)}
	for tid := 0; tid < threads; tid++ {
		var blocks []trace.BlockExec
		base := uint64(tid * linesPer * trace.LineSize)
		for s := 0; s < sweeps; s++ {
			for i := 0; i < linesPer; i++ {
				blocks = append(blocks, trace.BlockExec{
					Block:  1,
					Instrs: 8,
					Accs:   []trace.Access{{Addr: base + uint64(i*trace.LineSize), Write: write}},
					Branch: true,
					Taken:  true,
				})
			}
		}
		r.Threads[tid] = blocks
	}
	return r
}

func TestRunRegionBasics(t *testing.T) {
	m := New(Tiny(2))
	res := m.RunRegion(seqRegion(2, 16, 4, false))
	if res.Cycles == 0 || res.TimeNs <= 0 {
		t.Fatal("no time passed")
	}
	wantInstrs := uint64(2 * 16 * 4 * 8)
	if res.Counters.Instrs != wantInstrs {
		t.Errorf("instrs = %d, want %d", res.Counters.Instrs, wantInstrs)
	}
	if res.ThreadInstrs[0] != wantInstrs/2 || res.ThreadInstrs[1] != wantInstrs/2 {
		t.Errorf("per-thread instrs wrong: %v", res.ThreadInstrs)
	}
	if res.Counters.L1DAccesses != 2*16*4 {
		t.Errorf("accesses = %d", res.Counters.L1DAccesses)
	}
	// 16 lines per thread: only the first sweep misses (L1 holds them).
	if res.Counters.L1DMisses != 2*16 {
		t.Errorf("L1D misses = %d, want %d", res.Counters.L1DMisses, 2*16)
	}
	if res.Counters.DRAMAccs != 2*16 {
		t.Errorf("DRAM accesses = %d, want %d", res.Counters.DRAMAccs, 2*16)
	}
}

func TestBarrierAlignsCores(t *testing.T) {
	m := New(Tiny(4))
	// Thread 0 does 10x the work of the others.
	r := &trace.SliceRegion{Threads: make([][]trace.BlockExec, 4)}
	for tid := 0; tid < 4; tid++ {
		n := 10
		if tid == 0 {
			n = 100
		}
		for i := 0; i < n; i++ {
			r.Threads[tid] = append(r.Threads[tid], trace.BlockExec{Block: tid, Instrs: 4})
		}
	}
	m.RunRegion(r)
	c0 := m.core[0].cycle
	for _, co := range m.core {
		if co.cycle != c0 {
			t.Fatalf("cores not barrier-aligned: %d vs %d", co.cycle, c0)
		}
	}
}

func TestRegionTimeDominatedBySlowestThread(t *testing.T) {
	m := New(Tiny(2))
	balanced := m.RunRegion(seqRegion(2, 8, 50, false))
	m.Reset()
	// Same total work, all on thread 0.
	skew := &trace.SliceRegion{Threads: make([][]trace.BlockExec, 2)}
	for s := 0; s < 100; s++ {
		for i := 0; i < 8; i++ {
			skew.Threads[0] = append(skew.Threads[0], trace.BlockExec{
				Block: 1, Instrs: 8,
				Accs: []trace.Access{{Addr: uint64(i * 64)}},
			})
		}
	}
	skewed := m.RunRegion(skew)
	if skewed.Cycles <= balanced.Cycles {
		t.Errorf("skewed region (%d cyc) not slower than balanced (%d cyc)", skewed.Cycles, balanced.Cycles)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() RegionResult {
		m := New(Tiny(4))
		var last RegionResult
		for i := 0; i < 5; i++ {
			last = m.RunRegion(seqRegion(4, 32, 3, i%2 == 0))
		}
		return last
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Counters != b.Counters {
		t.Errorf("non-deterministic simulation: %+v vs %+v", a, b)
	}
}

func TestInclusionInvariant(t *testing.T) {
	m := New(Tiny(4))
	rng := rand.New(rand.NewSource(3))
	// Random traffic with sharing and eviction pressure.
	r := &trace.SliceRegion{Threads: make([][]trace.BlockExec, 4)}
	for tid := 0; tid < 4; tid++ {
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(32768)) * trace.LineSize
			r.Threads[tid] = append(r.Threads[tid], trace.BlockExec{
				Block: tid*16 + rng.Intn(3), Instrs: 6,
				Accs:   []trace.Access{{Addr: addr, Write: rng.Intn(3) == 0}},
				Branch: true, Taken: rng.Intn(2) == 0,
			})
		}
	}
	m.RunRegion(r)
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestMSISingleWriter(t *testing.T) {
	m := New(Tiny(4))
	const line = uint64(1000)
	addr := line * trace.LineSize
	// All cores read, then core 2 writes.
	read := &trace.SliceRegion{Threads: make([][]trace.BlockExec, 4)}
	for tid := 0; tid < 4; tid++ {
		read.Threads[tid] = [][]trace.BlockExec{{{Block: 1, Instrs: 4, Accs: []trace.Access{{Addr: addr}}}}}[0]
	}
	m.RunRegion(read)
	for c := 0; c < 4; c++ {
		if !m.L1DHas(c, line) {
			t.Fatalf("core %d missing shared line after read", c)
		}
	}
	write := &trace.SliceRegion{Threads: make([][]trace.BlockExec, 4)}
	write.Threads[2] = []trace.BlockExec{{Block: 2, Instrs: 4, Accs: []trace.Access{{Addr: addr, Write: true}}}}
	for tid := 0; tid < 4; tid++ {
		if tid != 2 {
			write.Threads[tid] = nil
		}
	}
	res := m.RunRegion(write)
	if res.Counters.Invals == 0 && res.Counters.Upgrades == 0 {
		t.Error("write to shared line caused no coherence action")
	}
	for c := 0; c < 4; c++ {
		has := m.L1DHas(c, line) || m.L2Has(c, line)
		if c == 2 && !has {
			t.Error("writer lost its line")
		}
		if c != 2 && has {
			t.Errorf("core %d still holds line after remote write", c)
		}
	}
}

func TestDirtyOwnerFetch(t *testing.T) {
	m := New(Tiny(2))
	const addr = uint64(77 * trace.LineSize)
	w := &trace.SliceRegion{Threads: [][]trace.BlockExec{
		{{Block: 1, Instrs: 4, Accs: []trace.Access{{Addr: addr, Write: true}}}},
		nil,
	}}
	m.RunRegion(w)
	// Core 1 reads the dirty line: must succeed and downgrade ownership.
	r := &trace.SliceRegion{Threads: [][]trace.BlockExec{
		nil,
		{{Block: 2, Instrs: 4, Accs: []trace.Access{{Addr: addr}}}},
	}}
	res := m.RunRegion(r)
	if res.Counters.Invals == 0 {
		t.Error("dirty remote fetch caused no invalidation")
	}
	if !m.L1DHas(1, 77) {
		t.Error("reader did not obtain the line")
	}
}

func TestColdVsWarmTiming(t *testing.T) {
	// The same region is faster on a warm machine.
	cold := New(Tiny(2))
	r1 := cold.RunRegion(seqRegion(2, 64, 2, false))
	r2 := cold.RunRegion(seqRegion(2, 64, 2, false))
	if r2.Cycles >= r1.Cycles {
		t.Errorf("second (warm) run not faster: %d vs %d", r2.Cycles, r1.Cycles)
	}
	if r2.Counters.DRAMAccs != 0 {
		t.Errorf("warm run still accessed DRAM %d times", r2.Counters.DRAMAccs)
	}
}

func TestDRAMBandwidthQueue(t *testing.T) {
	cfg := Tiny(1)
	l := newLLC(cfg.L3)
	// Back-to-back transfers at the same cycle queue up.
	lat1 := l.memAccess(0, 100, 20)
	lat2 := l.memAccess(0, 100, 20)
	lat3 := l.memAccess(0, 100, 20)
	if lat1 != 100 || lat2 != 120 || lat3 != 140 {
		t.Errorf("queueing latencies = %d, %d, %d", lat1, lat2, lat3)
	}
	// A transfer after the queue drains sees base latency.
	if lat := l.memAccess(10000, 100, 20); lat != 100 {
		t.Errorf("post-drain latency = %d", lat)
	}
}

func TestWarmAccessNoCountersNoTime(t *testing.T) {
	m := New(Tiny(2))
	before := m.Counters()
	for i := 0; i < 100; i++ {
		m.WarmAccess(0, uint64(i), i%2 == 0)
	}
	if m.Counters() != before {
		t.Error("warm accesses moved counters")
	}
	if m.core[0].cycle != 0 {
		t.Error("warm accesses advanced the clock")
	}
	if m.L2Occupancy(0) == 0 {
		t.Error("warm accesses did not fill caches")
	}
}

func TestWarmRegionEquivalentState(t *testing.T) {
	// WarmRegion leaves the same cache contents as RunRegion for a
	// single-threaded partitioned sweep.
	r := seqRegion(1, 64, 2, true)
	mRun := New(Tiny(1))
	mRun.RunRegion(r)
	mWarm := New(Tiny(1))
	mWarm.WarmRegion(seqRegion(1, 64, 2, true))
	for line := uint64(0); line < 64; line++ {
		if mRun.L2Has(0, line) != mWarm.L2Has(0, line) {
			t.Fatalf("line %d: run/warm L2 contents differ", line)
		}
	}
	if got := mWarm.Counters(); got != (Counters{}) {
		t.Errorf("WarmRegion moved counters: %+v", got)
	}
	_ = r
}

// TestReset is the proof under the machine free list: a machine driven
// through every entry point and then Reset is New's machine field for field —
// tags, payloads, predictor tables, clocks, DRAM queues, counters, the
// functional flag — so a point simulated on a reused machine cannot differ
// from one simulated on a fresh one.
func TestReset(t *testing.T) {
	for _, cfg := range []Config{TableI(1), TableI(4)} {
		n := cfg.Cores()
		region := seqRegion(n, 3000, 2, true) // spills L1D and L2 into the LLC
		m := New(cfg)
		for c := 0; c < n; c++ {
			for line := uint64(0); line < 600; line++ {
				m.WarmAccess(c, line, c%2 == 0) // every core on the same lines: sharers, owners, invalidations
			}
		}
		m.WarmRegion(region)
		m.RunRegion(seqRegion(n, 500, 1, false))
		m.RunRegion(region)
		if m.Counters() == (Counters{}) || m.LLCOccupancy(0) == 0 || m.core[n-1].cycle == 0 {
			t.Fatal("the drive left no state to reset")
		}
		m.functional = true // as a panic inside WarmAccess would leave it
		m.Reset()
		fresh := New(cfg)
		if !reflect.DeepEqual(m, fresh) {
			t.Fatalf("%d sockets: a Reset machine differs from a new one", cfg.Sockets)
		}
		if got, want := m.RunRegion(region), fresh.RunRegion(region); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d sockets: region on a Reset machine = %+v, on a new one %+v", cfg.Sockets, got, want)
		}

		// The free list hands that machine back, Reset again.
		built, reused := FreeListStats()
		Release(m)
		if got := Acquire(cfg); got != m || !reflect.DeepEqual(got, New(cfg)) {
			t.Fatalf("%d sockets: Acquire after Release did not return the released machine in New's state", cfg.Sockets)
		}
		if b, r := FreeListStats(); b != built || r != reused+1 {
			t.Fatalf("free list counted built %d→%d reused %d→%d, want one reuse", built, b, reused, r)
		}
	}
}

func TestRemoteSocketTraffic(t *testing.T) {
	cfg := Tiny(16) // 2 sockets × 8 cores
	if cfg.Sockets < 2 {
		t.Skip("need multi-socket config")
	}
	m := New(cfg)
	r := &trace.SliceRegion{Threads: make([][]trace.BlockExec, 16)}
	rng := rand.New(rand.NewSource(5))
	for tid := 0; tid < 16; tid++ {
		for i := 0; i < 500; i++ {
			r.Threads[tid] = append(r.Threads[tid], trace.BlockExec{
				Block: tid, Instrs: 4,
				Accs: []trace.Access{{Addr: uint64(rng.Intn(1 << 26))}},
			})
		}
	}
	res := m.RunRegion(r)
	if res.Counters.RemoteL3 == 0 {
		t.Error("no cross-socket traffic on a 2-socket machine")
	}
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestCountersMonotoneSanity(t *testing.T) {
	// Property: misses never exceed accesses; DRAM never exceeds
	// 2x L3 misses + L3 misses (fetch + writeback bound).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(Tiny(2))
		r := &trace.SliceRegion{Threads: make([][]trace.BlockExec, 2)}
		for tid := 0; tid < 2; tid++ {
			for i := 0; i < 200; i++ {
				r.Threads[tid] = append(r.Threads[tid], trace.BlockExec{
					Block: rng.Intn(8), Instrs: 1 + rng.Intn(16),
					Accs: []trace.Access{{
						Addr:  uint64(rng.Intn(1 << 22)),
						Write: rng.Intn(2) == 0,
					}},
					Branch: true, Taken: rng.Intn(2) == 0,
				})
			}
		}
		res := m.RunRegion(r)
		c := res.Counters
		return c.L1DMisses <= c.L1DAccesses &&
			c.L2Misses <= c.L1DMisses &&
			c.L3Misses <= c.L2Misses+c.Upgrades &&
			c.DRAMAccs <= 2*c.L3Misses+1 &&
			res.Cycles > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRegionResultMetrics(t *testing.T) {
	r := RegionResult{
		Cycles:   1000,
		Counters: Counters{Instrs: 4000, DRAMAccs: 8},
	}
	if r.IPC() != 4.0 {
		t.Errorf("IPC = %v", r.IPC())
	}
	if r.DRAMAPKI() != 2.0 {
		t.Errorf("APKI = %v", r.DRAMAPKI())
	}
	if r.Instrs() != 4000 {
		t.Errorf("Instrs = %v", r.Instrs())
	}
	var zero RegionResult
	if zero.IPC() != 0 || zero.DRAMAPKI() != 0 {
		t.Error("zero-value metrics not zero")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config did not panic")
		}
	}()
	New(Config{})
}
