package barrierpoint_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	bp "barrierpoint"
	"barrierpoint/internal/sim"
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
// pool width, LocalRunner.RunPoints (points fed from the streaming pass
// while it runs), per-point SimulatePoint (one prefix pass each, the farm's
// unit of work) and the pre-change goldens agree exactly. Run under -race
// it also covers the pass feeding a live pool.
func TestRunPointsMatchesSimulatePointAndGolden(t *testing.T) {
	prog := workload.New("npb-ft", 8, workload.WithScale(0.1))
	mc := bp.TableIMachine(1)
	a, err := bp.Analyze(prog, bp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var regions []int
	for _, pt := range a.BarrierPoints() {
		regions = append(regions, pt.Region)
	}
	for _, mode := range []bp.WarmupMode{bp.ColdWarmup, bp.MRUWarmup, bp.MRUPrevWarmup} {
		single := make(map[int]bp.RegionResult, len(regions))
		for _, r := range regions {
			if single[r], err = bp.SimulatePoint(prog, r, mc, mode); err != nil {
				t.Fatal(err)
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
				t.Errorf("%v, %d workers: RunPoints differs from per-point SimulatePoint", mode, workers)
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

// TestRunPointsReportsOneCapture: an observed RunPoints call owns one prefix
// pass and reports it once, however many points it hands out — exactly one
// "warmup-capture" under an MRU mode, none under cold — beside one set of
// phases per point.
func TestRunPointsReportsOneCapture(t *testing.T) {
	prog := workload.New("npb-is", 8, workload.WithScale(0.05))
	regions := []int{1, 3, 6}
	for mode, phases := range map[bp.WarmupMode]map[string]int{
		bp.ColdWarmup:    {"point-detail": 3},
		bp.MRUWarmup:     {"warmup-capture": 1, "warm-replay": 3, "point-detail": 3},
		bp.MRUPrevWarmup: {"warmup-capture": 1, "warm-replay": 3, "warm-prev": 3, "point-detail": 3},
	} {
		var mu sync.Mutex
		got := make(map[string]int)
		lr := bp.LocalRunner{Workers: 2, Observer: func(stage string, d time.Duration) {
			mu.Lock()
			got[stage]++
			mu.Unlock()
		}}
		_, err := lr.RunPoints(prog, regions, bp.TableIMachine(1), mode)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, phases) {
			t.Errorf("%v: observed stages %v, want %v", mode, got, phases)
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
		snaps := warmup.Capture(prog, regions, mc.L3.Lines()*mc.Sockets)
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
