package barrierpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/sim"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
	"barrierpoint/internal/warmup"
	"barrierpoint/internal/workload"
)

// goldenEstimates are the npb-ft (8 threads, scale 0.1, default config)
// estimates as computed before the streaming prefix pass and the recency
// list tracker replaced the collect-then-simulate runner and the map+sort
// tracker: the rewrite must not move a single bit of any of them.
var goldenEstimates = map[bp.WarmupMode]bp.Estimate{
	bp.ColdWarmup: {Cycles: 2.8572643005757215e+06, TimeNs: 1.074159511494632e+06, Instrs: 580624,
		DRAMAccs: 93612.2605600592, L3Misses: 93612.2605600592, L2Misses: 94033.48149029177, L1DAccs: 164679.06693581044},
	bp.MRUWarmup: {Cycles: 356967.81978097535, TimeNs: 134198.4284890885, Instrs: 580624,
		DRAMAccs: 9345.582865168539, L3Misses: 9345.582865168539, L2Misses: 9730.175888424354, L1DAccs: 164679.06693581044},
	bp.MRUPrevWarmup: {Cycles: 355123.67269763385, TimeNs: 133505.1401118924, Instrs: 580624,
		DRAMAccs: 9345.582865168539, L3Misses: 9345.582865168539, L2Misses: 9730.175888424354, L1DAccs: 164679.06693581044},
}

// TestRunPointsMatchesSimulatePointAndGolden: for every warm-up mode and
// pool width, LocalRunner.RunPoints (runs fed from the streaming pass while
// it runs), per-run simulation (one prefix pass each, the farm's unit of
// work; SimulatePoint for a run of one) and the goldens agree exactly. The
// mru+prev selection has runs of several points. Run under -race it also
// covers the pass feeding a live pool.
func TestRunPointsMatchesSimulatePointAndGolden(t *testing.T) {
	prog := workload.New("npb-ft", 8, workload.WithScale(0.1))
	mc := bp.TableIMachine(1)
	a, err := bp.Analyze(prog, bp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var regions []int
	for _, pt := range a.Selection.Points {
		regions = append(regions, pt.Region)
	}
	for _, mode := range []bp.WarmupMode{bp.ColdWarmup, bp.MRUWarmup, bp.MRUPrevWarmup} {
		runs := bp.Runs(regions, mode)
		if mode == bp.MRUPrevWarmup && len(runs) == len(regions) {
			t.Fatalf("the selection %v has no run of two points", regions)
		}
		single := make(map[int]bp.RegionResult, len(regions))
		for _, run := range runs {
			res, err := bp.SimulateRun(prog, run[0], len(run), mc, mode)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range run {
				single[r] = res[i]
			}
			if len(run) == 1 {
				if pt, err := bp.SimulatePoint(prog, run[0], mc, mode); err != nil || !reflect.DeepEqual(pt, res[0]) {
					t.Errorf("%v: SimulatePoint(%d) differs from its run of one (%v)", mode, run[0], err)
				}
			}
		}
		est, err := a.EstimateFrom(single)
		if err != nil {
			t.Fatal(err)
		}
		if est != goldenEstimates[mode] {
			t.Errorf("%v: estimate moved\n got  %#v\n want %#v", mode, est, goldenEstimates[mode])
		}
		for _, workers := range []int{1, 2, 8} {
			got, err := bp.LocalRunner{Workers: workers}.RunPoints(prog, regions, mc, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, single) {
				t.Errorf("%v, %d workers: RunPoints differs from per-run simulation", mode, workers)
			}
		}
	}
}

// TestRunPointsDuplicatesAndRange: duplicates are simulated once and
// covered, and an out-of-range region is SimulatePoint's error, not an
// index past the program.
func TestRunPointsDuplicatesAndRange(t *testing.T) {
	prog := workload.New("npb-is", 8, workload.WithScale(0.05))
	mc := bp.TableIMachine(1)
	for _, mode := range []bp.WarmupMode{bp.ColdWarmup, bp.MRUPrevWarmup} {
		got, err := bp.LocalRunner{}.RunPoints(prog, []int{3, 1, 3, 1, 3}, mc, mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("%v: %d results for 2 distinct regions", mode, len(got))
		}
		for _, r := range []int{1, 3} {
			want, err := bp.SimulatePoint(prog, r, mc, mode)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[r], want) {
				t.Errorf("%v: region %d differs from SimulatePoint", mode, r)
			}
		}
		for _, bad := range []int{-1, prog.Regions()} {
			_, runErr := bp.LocalRunner{}.RunPoints(prog, []int{1, bad}, mc, mode)
			_, ptErr := bp.SimulatePoint(prog, bad, mc, mode)
			if runErr == nil || ptErr == nil || runErr.Error() != ptErr.Error() ||
				!strings.Contains(runErr.Error(), "out of range") {
				t.Errorf("%v: region %d: RunPoints error %v, SimulatePoint error %v", mode, bad, runErr, ptErr)
			}
		}
	}
}

// TestRunPointsWarmsOncePerRun is the deterministic measure of what runs
// save, since tier-1 cannot gate wall time: under mru+prev a run of
// consecutive points replays one snapshot and warms one window, and each
// of its points is one detailed simulation; under mru and cold every point
// is a run of its own. An observed call also owns one prefix pass and
// reports it once, however many runs it hands out: one "warmup-capture"
// under an MRU mode, none under cold.
func TestRunPointsWarmsOncePerRun(t *testing.T) {
	prog := workload.New("npb-is", 8, workload.WithScale(0.05))
	regions := []int{9, 1, 2, 3, 6, 8} // mru+prev: runs [1 2 3], [6] and [8 9]
	for mode, phases := range map[bp.WarmupMode]map[string]int{
		bp.ColdWarmup:    {"point-detail": 6},
		bp.MRUWarmup:     {"warmup-capture": 1, "warm-replay": 6, "point-detail": 6},
		bp.MRUPrevWarmup: {"warmup-capture": 1, "warm-replay": 3, "warm-prev": 3, "point-detail": 6},
	} {
		var mu sync.Mutex
		got := make(map[string]int)
		lr := bp.LocalRunner{Workers: 2, Observer: func(stage string, d time.Duration) {
			mu.Lock()
			got[stage]++
			mu.Unlock()
		}}
		res, err := lr.RunPoints(prog, regions, bp.TableIMachine(1), mode)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(regions) || !reflect.DeepEqual(got, phases) {
			t.Errorf("%v: %d results, observed stages %v; want %d results and %v", mode, len(res), got, len(regions), phases)
		}
	}
}

// TestPointsOnReusedMachinesMatchNewOnes: eight goroutines simulate points
// through the machine free list, alternating between the one-socket and the
// four-socket machine so both lists are taken from and returned to at once,
// and every result equals the point simulated here by hand on a sim.New
// machine that was never on a list. Run under -race it is also the free
// list's concurrency test.
func TestPointsOnReusedMachinesMatchNewOnes(t *testing.T) {
	type point struct {
		prog   bp.Program
		mc     bp.MachineConfig
		region int
		want   bp.RegionResult
	}
	var points []point
	for _, sockets := range []int{1, 4} {
		prog, mc := workload.New("npb-is", 8*sockets, workload.WithScale(0.05)), bp.TableIMachine(sockets)
		regions := []int{1, 4, 7}
		snaps, err := warmup.Capture(prog, regions, mc.L3.Lines()*mc.Sockets)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range regions {
			m := sim.New(mc)
			warmup.Replay(m, snaps[r])
			points = append(points, point{prog, mc, r, m.RunRegion(prog.Region(r))})
		}
	}
	_, reusedBefore := sim.FreeListStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, half := 0, len(points)/2; i < 2*len(points); i++ {
				pt := points[i%2*half+(g+i)%half] // even i: one socket; odd i: four
				got, err := bp.SimulatePoint(pt.prog, pt.region, pt.mc, bp.MRUWarmup)
				if err != nil || !reflect.DeepEqual(got, pt.want) {
					t.Errorf("%d-socket region %d on a free-list machine: %+v, %v; on a new one %+v", pt.mc.Sockets, pt.region, got, err, pt.want)
				}
			}
		}()
	}
	wg.Wait()
	if _, reused := sim.FreeListStats(); reused == reusedBefore {
		t.Error("no point ran on a reused machine: the test did not exercise the free list")
	}
}

// TestCorruptChunkFailsEstimate: a recorded trace whose chunk (region 0,
// thread 0) is corrupted in place after its analysis — the framing intact,
// the continuation bit set on the chunk's last byte so its last varint runs
// off the end — fails an mru estimate, streamed and through a replay cache,
// rather than estimating from the truncated stream.
func TestCorruptChunkFailsEstimate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "is.bptrace")
	if err := bp.SaveTrace(path, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	f, err := bp.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := bp.Analyze(f, bp.DefaultConfig())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	corruptFirstChunk(t, path)
	for _, rc := range []*tracefile.RegionCache{nil, tracefile.NewRegionCache(0)} {
		tr, err := bp.OpenTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := *a
		corrupt.Program = rc.Program(tr, path)
		if est, err := corrupt.Estimate(bp.TableIMachine(1), bp.MRUWarmup); err == nil {
			t.Errorf("cache %v: the estimate of a corrupt trace is %+v, and no error", rc != nil, est)
		}
		tr.Close()
	}
}

// TestCorruptChunkFailsAnalyze: bp.Analyze of a recorded trace with one
// chunk that does not decode fails, rather than clustering a profile of the
// truncated stream.
func TestCorruptChunkFailsAnalyze(t *testing.T) {
	path := filepath.Join(t.TempDir(), "is.bptrace")
	if err := bp.SaveTrace(path, workload.New("npb-is", 8, workload.WithScale(0.05))); err != nil {
		t.Fatal(err)
	}
	corruptFirstChunk(t, path)
	f, err := bp.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := bp.Analyze(f, bp.DefaultConfig()); err == nil {
		t.Error("the analysis of a corrupt trace succeeded")
	}
}

// corruptFirstChunk corrupts the chunk (region 0, thread 0) of the trace
// file at path in place: the framing intact, the continuation bit set on the
// chunk's last byte so its last varint runs off the end.
func corruptFirstChunk(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte // nothing before it but the header
	if _, err := tracefile.DecodeStream(bytes.NewReader(data), func(rc tracefile.RegionChunks) error {
		if rc.Index == 0 {
			first = rc.Chunks[0]
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	data[bytes.Index(data, first)+len(first)-1] |= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestColdCacheHoldsReplayedRegionsOnly: the prefix pass reads every region
// access-only and fills no cache, and each run decodes its own window and
// members, so a cold RegionCache ends up holding exactly the regions the runs
// replay in full: the points, and under mru+prev each run head's window. An
// estimate over the cache shows what it holds. The same runs taken stepwise
// on a fresh cache, the whole pass before any run, show the counts: the pass
// inserts nothing (its reads all go past the cache, each a miss of one
// thread), and the runs' decodes then equal the entries and the replayed
// regions, so each of those decodes exactly once.
func TestColdCacheHoldsReplayedRegionsOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lu.bptrace")
	if err := bp.SaveTrace(path, workload.New("npb-lu", 8, workload.WithScale(0.2))); err != nil {
		t.Fatal(err)
	}
	f, err := bp.OpenTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := bp.Analyze(f, bp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []bp.WarmupMode{bp.MRUWarmup, bp.MRUPrevWarmup} {
		held := make(map[int]bool)
		var regions []int
		for _, p := range a.Selection.Points {
			held[p.Region] = true
			regions = append(regions, p.Region)
		}
		for _, run := range bp.Runs(regions, mode) {
			for q := max(run[0]-bp.PrevWarmupWindow, 0); mode == bp.MRUPrevWarmup && q < run[0]; q++ {
				held[q] = true
			}
		}
		rc := tracefile.NewRegionCache(0)
		cold := *a
		cold.Program = rc.Program(f, path)
		if _, err := cold.Estimate(bp.TableIMachine(1), mode); err != nil {
			t.Fatal(err)
		}
		before := rc.Stats()
		for r := range held { // each a hit: the cache holds every one
			trace.CountInstrs(cold.Program.Region(r).Thread(0))
		}
		after := rc.Stats()
		if before.Entries != len(held) || before.Evictions != 0 || after.Hits-before.Hits != int64(len(held)) || after.Misses != before.Misses {
			t.Errorf("%v: the cache holds %d regions (%d evicted), and %d of the %d replayed hit; want exactly the %d replayed regions",
				mode, before.Entries, before.Evictions, after.Hits-before.Hits, len(held), len(held))
		}
		if len(held) == a.Program.Regions() {
			t.Errorf("%v: the points and windows cover all %d regions: the test shows nothing", mode, len(held))
		}

		rc = tracefile.NewRegionCache(0)
		prog := rc.Program(f, path)
		pass := bp.NewPrefixPass(bp.TableIMachine(1))
		var simulate []func() ([]bp.RegionResult, error)
		for _, run := range bp.Runs(regions, mode) {
			fn, err := pass.Run(prog, run[0], len(run), mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			simulate = append(simulate, fn)
		}
		read := rc.Stats()
		if want := int64(pass.Pos() * f.Threads()); read.Entries != 0 || read.Hits != 0 || read.Misses != want {
			t.Errorf("%v: the pass left the cache at %+v, want %d reads past it and nothing held", mode, read, want)
		}
		for _, fn := range simulate {
			if _, err := fn(); err != nil {
				t.Fatal(err)
			}
		}
		s := rc.Stats()
		if decoded := s.Misses - read.Misses; decoded != int64(s.Entries) || s.Entries != len(held) || s.Evictions != 0 {
			t.Errorf("%v: the runs decoded %d regions into %d entries (%d evicted), want each of the %d replayed regions once",
				mode, decoded, s.Entries, s.Evictions, len(held))
		}
	}
}
