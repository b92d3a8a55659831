package barrierpoint_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"sort"
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/sim"
	"barrierpoint/internal/warmup"
	"barrierpoint/internal/workload"
)

// machineGoldens are SHA-256 digests over every field of every RegionResult
// of a full simulation and of the sampled points under each warm-up mode,
// keyed "<machine>/<workload>/<run>". They were generated before the
// recency-ordered set kernel replaced the timestamp-LRU caches in
// internal/sim: way position was never observable, so the swap must not
// move one bit of any simulated statistic. TableI(2) and Tiny(16) are
// two-socket machines (remote-home and cross-socket invalidation paths).
var machineGoldens = map[string]string{
	"tableI-1/npb-cg/cold":               "3796e4133c88f7c91917b70d0821b9b38246894907f34f92910ee4967377a530",
	"tableI-1/npb-cg/full":               "aa57b007056b32aae9e7450bb9c106f61702fb6cfa12c35dba5882b6273adf13",
	"tableI-1/npb-cg/mru":                "ddf4a8c70356984d1ae8538ef041a999a74a60c24fffe56703d6453f0622d75f",
	"tableI-1/npb-cg/mru+prev":           "94f18cf40c73e3f5fb41d186ce12384a63b679a36035a1e739c0680b8a2cbe80",
	"tableI-1/npb-ft/cold":               "cc325afc3d81ccf3e61a96d8d4d24ccf42717523a47058ddbd56a3efb42fcfe8",
	"tableI-1/npb-ft/full":               "8eb2fecd81af51b802c731d604db84cd3bc5ab15232dc984f1cdf3938436ef28",
	"tableI-1/npb-ft/mru":                "fa564c547b83f1e5094827b1db96c22bd883d6cb839d4e31049782d568f34611",
	"tableI-1/npb-ft/mru+prev":           "6c389593f12736eca34a64bf91c6083bd8cc91973833ef0c847303fff82a987c",
	"tableI-1/npb-is/cold":               "44bea0e5230fa58732d4d87cc72496fb27060e071d33aace5adf3b9f1d68e38d",
	"tableI-1/npb-is/full":               "657b1ad7454396072e336117ecb438d74d29e08c35cb6cec5fd51662ac3fccdf",
	"tableI-1/npb-is/mru":                "b5e733947eb680c3195733b70dfaf3dcb51c72ffe8ce8e6367eae8444dca4a18",
	"tableI-1/npb-is/mru+prev":           "6b80fd7668b6d9d3e3bd83e3499b82c07bc940a070496c1f1bb1c0df7f50c64b",
	"tableI-1/npb-lu/cold":               "97d8b42b2ee6d4c097b7daf483ca3f2dfa9b859c8c75ad540687f7c800bfc550",
	"tableI-1/npb-lu/full":               "78d78fbc0325c5e71973c2dba3277833cdbe6a49c951eb87c503d9fd02439590",
	"tableI-1/npb-lu/mru":                "c31f801f17aee41db77ef7bb3ee8a70e9bb1656fc9be0703d6474eb2fd8c18dd",
	"tableI-1/npb-lu/mru+prev":           "4fb9afcdd66fe9e3f44cc71a91bc667a8aee316cc766190a945d8d608cba4bec",
	"tableI-1/parsec-bodytrack/cold":     "49e083a611b215527f0da1ee06e35bf2de38e6f5043dadd3ace9b3479ae53e11",
	"tableI-1/parsec-bodytrack/full":     "8af25011149d841dd78758d850842caae5036f22c1db696f9be7242a2ed45f54",
	"tableI-1/parsec-bodytrack/mru":      "e9b0f047aba876a21dcd2da746fe6d1c9b2eb583509b1dcd5072e81a6795d1c1",
	"tableI-1/parsec-bodytrack/mru+prev": "ff8dd31155916c996ec2b9b4b33b90f8aea10ac951400f76f723c53a3c596722",
	"tableI-2/npb-cg/cold":               "927666ad116521bcb377eab781abbae2914a5a4c144e75d492ee2c2c96734ef6",
	"tableI-2/npb-cg/full":               "f2348fb673164c5170954ade3a70ed53c8ccd7d19d79129626e60bc39353d6ce",
	"tableI-2/npb-cg/mru":                "9048534746f44c0bfb6d3964b262fd20d2402360d27ee927d485876570baec3d",
	"tableI-2/npb-cg/mru+prev":           "9f4da0beb209e6d0236646775643a581ec1c3dd2afc3952e0c3f23dd26d00b13",
	"tableI-2/npb-ft/cold":               "db238459a8acc55853c0668a9c03a44a47596d988b3c4da6f53a514196478792",
	"tableI-2/npb-ft/full":               "0ddb54f4c852c217db8efd7486ab2376c58c366bfd0a9851be3384c79ab89ac0",
	"tableI-2/npb-ft/mru":                "ef8008a95b970ba255a55b20ee5c7f7c4e9607db9a285f2e0f07f8121e39a4fc",
	"tableI-2/npb-ft/mru+prev":           "c83b5f579d0568c95e7295adc945ad704469d63d0bbca7d13eb2e8d0c623d98c",
	"tableI-2/npb-is/cold":               "4de4acec7f54e6baea467e7cd51921d40db12045881b36af4f5a3c6e383f3aef",
	"tableI-2/npb-is/full":               "388cc609fcf6bdbdd2a1170c89091493a57e08d657773ee4e13f45efc629ac76",
	"tableI-2/npb-is/mru":                "75a66abc3f8c9eded812e9727d8c25dc9ca1fc2f83d4f9d36335df9dc566c497",
	"tableI-2/npb-is/mru+prev":           "62a5ee318a0fd0698609c41f263534e86b2cb01dc048f35f9f6d1bac7d871a86",
	"tableI-2/npb-lu/cold":               "1487c619971754ce63f076597fa26961fd93e1b7506ed54a9f72f5a333d6c1eb",
	"tableI-2/npb-lu/full":               "f84c9b8f5d7a977e757bcd40efaea53a7f177ca22da4a3eaefebec7dc9e0e4f8",
	"tableI-2/npb-lu/mru":                "665ad39e3c1895fb1ef23c2d432aa11b1752b8df93fa97598e0ddda08370151b",
	"tableI-2/npb-lu/mru+prev":           "776e7bded0a09aa949661dcb05bc086485ff1aa043e2739e501301f848f8864e",
	"tableI-2/parsec-bodytrack/cold":     "40d17093f49843b57d79d8446a72443290d39ce1a401f61461119729a2d813b1",
	"tableI-2/parsec-bodytrack/full":     "81145c4cb9f617f0af8905e764e57fccc2ad22865d61fd9e9d6ce1c481fcc148",
	"tableI-2/parsec-bodytrack/mru":      "96b8be7a68b70dffc995adbdf15494123bd3c9c4de8cb9d10eced6aab0fdbe4e",
	"tableI-2/parsec-bodytrack/mru+prev": "3fd86808dfac2ca8618e6b9aca43522b39d6a8df86212fc029ec8f24e8667813",
	"tiny-16/npb-cg/cold":                "fe030ad4cc952bc033e757265090879dccb9b1cf88922f6dac89614a45c5e6bc",
	"tiny-16/npb-cg/full":                "36e5e347a4560ba5d337f10c047dbb4b1861dc877c985a40703c9f970a1a9580",
	"tiny-16/npb-cg/mru":                 "d4d376aa45a7a404bd139168b061ac30707dc4c37c16c0cc3aa6fbaae79c01cf",
	"tiny-16/npb-cg/mru+prev":            "9c6d72899f6d918b59ad8e65037cbde1b1152d4c959833de3f70662beae79e8f",
	"tiny-16/npb-ft/cold":                "e7a36adeb99eeda647d1ea91c5db1f611265220b71c87ce60e892893077fc50f",
	"tiny-16/npb-ft/full":                "360bbe26407ad97677df04a03f81774f226e51c801051a7992b5228641f1d5f9",
	"tiny-16/npb-ft/mru":                 "87f22fe09385b02b077129b028eb072178c738f8fa01dd3fc13090b1589320b9",
	"tiny-16/npb-ft/mru+prev":            "6581d92dd7e57a229c08ca90cd4b1bcadb49d352f744fee62ca7986e34eb06af",
	"tiny-16/npb-is/cold":                "ae674139a31b3c2116a1bcc04e6e96c49845dc6f87166a4fb39c09175294d135",
	"tiny-16/npb-is/full":                "bdddd18debd5dfee757271eb99684a1b29c94aeaf79e2e0efe38b64175e19bdc",
	"tiny-16/npb-is/mru":                 "4ea3b0808cb636f0235a9b2d730f1fa4469f417734a528451664bc6de1e16728",
	"tiny-16/npb-is/mru+prev":            "ca9c376226b434bd3fa9a271fdd140f87526286678c2f1086abd146d5e66c86a",
	"tiny-16/npb-lu/cold":                "237d568b7cf644b610d74df70248606ca93df6f9b8a8b88fda4a4d3f76c9d4cf",
	"tiny-16/npb-lu/full":                "7c582970b961e9f9d0b9638a871e795921498ae47d2f7702d3d51a88fb3b5650",
	"tiny-16/npb-lu/mru":                 "ffe6a4a980eb131076dc0eb769c70a01204b238516aa7b39c16303cc7fefa3e5",
	"tiny-16/npb-lu/mru+prev":            "24b3636295ab3763bbcfdd0c8fec18fc3df3577e63a9cd1fe002e2e10d008ec3",
	"tiny-16/parsec-bodytrack/cold":      "ee6852b766976a7fbd2d089852f20751fb0ad28e06c76b6209a90698d51590cc",
	"tiny-16/parsec-bodytrack/full":      "de37284e850c7618aef1db79378ab1cd0763d907fb297010ddfd4e127acc4eba",
	"tiny-16/parsec-bodytrack/mru":       "d53cffa1f2d070404c5665f889515ffa41ba3fbd804df514a9d3d4878160c84a",
	"tiny-16/parsec-bodytrack/mru+prev":  "35a5132b5d37bbe3c9fedc9366f665ed2987e21af209733fed6284a4caa2ebc1",
	"tiny-8/npb-cg/cold":                 "8293863652d01513b7f05f3704fc175435797e11d45573ff4f8e25b7b0010683",
	"tiny-8/npb-cg/full":                 "e945888649822996c30fb7e9c964eeee3d001344129a7afc785986c2d2203083",
	"tiny-8/npb-cg/mru":                  "094c7a782015c954a94d45d7c397d31b4658d68da2a63b6edb88a7a3e4fb7a8a",
	"tiny-8/npb-cg/mru+prev":             "9f2a273bf5cd3a40550856bde3aeea14ac312fc244feff191fb7d4aa0eccf9c8",
	"tiny-8/npb-ft/cold":                 "8e58604f4fab2372d1bf9d295cd57b1e6e6f5cfdb537eeda0df9c96ecb127134",
	"tiny-8/npb-ft/full":                 "e398b2a84f3249be4a53ab80c5b03b84aa9b6068ee25396ca503fcd25a0ec5d9",
	"tiny-8/npb-ft/mru":                  "1802184d6968e0d9d63c93e9755a27887041936b0d3a755552b6b97eabc80026",
	"tiny-8/npb-ft/mru+prev":             "ef07c5792829cb9c0be25147daeb3b12b192d7eacb496b9638533a21cf66f07f",
	"tiny-8/npb-is/cold":                 "956a6878f4d5535a793bd01f88e5e3e231e4ec65ef9e5576a15c934534fed109",
	"tiny-8/npb-is/full":                 "7fc04ee7cbd55ea0bca276f4e1e2658694c4b4dc3d19163e3543498a5ee26040",
	"tiny-8/npb-is/mru":                  "7211257e59dd31606c8a10908ec1ae6572cc4a34b7995a0b652eabeff9043191",
	"tiny-8/npb-is/mru+prev":             "a04abf226cbdaccbe39446662ea9b5a41e0dcb660ee7ed08bd0e7a83ef9782ad",
	"tiny-8/npb-lu/cold":                 "1f2b4a4dea925fff8ee5b0d99334761320c7244c31f51b5933830e6ef8e88376",
	"tiny-8/npb-lu/full":                 "fadadd01a5d9c14253453501fadae9052b09f316846308c4988adb48270e90de",
	"tiny-8/npb-lu/mru":                  "839a9531ee2614310fe8698349480ca479fa8a7380b18f8783a4c3d4beac620f",
	"tiny-8/npb-lu/mru+prev":             "6093c13c8fcb61657f3e82900cc199aa44a5a887edb28386b844fce7bebb1f71",
	"tiny-8/parsec-bodytrack/cold":       "3b5bda4062cab226020293dc19d8044464a4ad5cc82cce2efb7c8047ea5502d8",
	"tiny-8/parsec-bodytrack/full":       "d58fde41aa4a59fd6e92610e3c7474ed16a6dab525661ee764ac11520b2d920c",
	"tiny-8/parsec-bodytrack/mru":        "58a6650b8ace0fa1d9393bc4ea05001404da4954c18149809632e4733bab280f",
	"tiny-8/parsec-bodytrack/mru+prev":   "040e1991941bd940c9f853777682a8b5a1bbbaf3c115119d357c443b4656b1a2",
}

// goldenMachines lists the machines the digests cover with the scale their
// workloads run at (TableI(2) simulates 16 threads, so it runs smaller).
var goldenMachines = []struct {
	name  string
	cfg   sim.Config
	scale float64
}{
	{"tableI-1", sim.TableI(1), 0.1},
	{"tableI-2", sim.TableI(2), 0.05},
	{"tiny-8", sim.Tiny(8), 0.1},
	{"tiny-16", sim.Tiny(16), 0.05},
}

var goldenWorkloads = []string{"npb-cg", "npb-ft", "npb-is", "npb-lu", "parsec-bodytrack"}

// hashResult feeds every field of r to h. Counters is walked by reflection
// so a counter added later is covered without editing this function.
func hashResult(h hash.Hash, r bp.RegionResult) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(r.Cycles)
	put(math.Float64bits(r.TimeNs))
	put(uint64(len(r.ThreadInstrs)))
	for _, n := range r.ThreadInstrs {
		put(n)
	}
	cv := reflect.ValueOf(r.Counters)
	for i := 0; i < cv.NumField(); i++ {
		put(cv.Field(i).Uint())
	}
}

func digestRegions(results []bp.RegionResult) string {
	h := sha256.New()
	for _, r := range results {
		hashResult(h, r)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestPoints(results map[int]bp.RegionResult) string {
	regions := make([]int, 0, len(results))
	for r := range results {
		regions = append(regions, r)
	}
	sort.Ints(regions)
	h := sha256.New()
	var b [8]byte
	for _, r := range regions {
		binary.LittleEndian.PutUint64(b[:], uint64(r))
		h.Write(b[:])
		hashResult(h, results[r])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// prevWindow mirrors the unexported prevWarmupWindow of the root package: the
// regions MRUPrevWarmup executes functionally ahead of a point. If the two
// drift apart the stepwise replica stops matching RunPoints.
const prevWindow = 12

// goldenRegions picks the sampled points by a fixed rule rather than by
// clustering, so the digests depend on the simulator alone: the first two
// regions (short or empty warm-up windows), three spread through the
// program, and the last.
func goldenRegions(n int) []int {
	return []int{0, 1, n / 3, n / 2, 2 * n / 3, n - 1}
}

// TestMachineGoldens pins the simulator end to end: SimulateFull and
// LocalRunner.RunPoints in every warm-up mode must reproduce the committed
// digests, a step-by-step replica of each run must agree with them, and the
// inclusive-hierarchy invariant must hold after every region of every run
// (detailed, functionally warmed or replayed from a snapshot).
func TestMachineGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-machine goldens simulate 20 programs")
	}
	check := func(t *testing.T, key, got string) {
		t.Helper()
		if want, ok := machineGoldens[key]; !ok {
			t.Errorf("no golden for %q; computed %s", key, got)
		} else if got != want {
			t.Errorf("%s: digest moved\n got  %s\n want %s", key, got, want)
		}
	}
	for _, gm := range goldenMachines {
		for _, wl := range goldenWorkloads {
			gm, wl := gm, wl
			t.Run(gm.name+"/"+wl, func(t *testing.T) {
				t.Parallel()
				prog := workload.New(wl, gm.cfg.Cores(), workload.WithScale(gm.scale))
				key := gm.name + "/" + wl + "/"

				full, err := bp.SimulateFull(prog, gm.cfg)
				if err != nil {
					t.Fatal(err)
				}
				check(t, key+"full", digestRegions(full))
				m := sim.New(gm.cfg)
				for i := 0; i < prog.Regions(); i++ {
					if got := m.RunRegion(prog.Region(i)); !reflect.DeepEqual(got, full[i]) {
						t.Fatalf("region %d: stepwise full run differs from SimulateFull", i)
					}
					if err := m.CheckInclusion(); err != nil {
						t.Fatalf("full run, after region %d: %v", i, err)
					}
				}

				regions := goldenRegions(prog.Regions())
				snaps := warmup.Capture(prog, regions, gm.cfg.L3.Lines()*gm.cfg.Sockets)
				for _, mode := range []bp.WarmupMode{bp.ColdWarmup, bp.MRUWarmup, bp.MRUPrevWarmup} {
					points, err := bp.LocalRunner{}.RunPoints(prog, regions, gm.cfg, mode)
					if err != nil {
						t.Fatal(err)
					}
					check(t, key+mode.String(), digestPoints(points))
					for _, r := range regions {
						m := sim.New(gm.cfg)
						inclusion := func(after string) {
							if err := m.CheckInclusion(); err != nil {
								t.Fatalf("%v, point %d, after %s: %v", mode, r, after, err)
							}
						}
						if mode != bp.ColdWarmup {
							warmup.Replay(m, snaps[r])
							inclusion("snapshot replay")
						}
						if mode == bp.MRUPrevWarmup {
							for q := max(r-prevWindow, 0); q < r; q++ {
								m.WarmRegion(prog.Region(q))
								inclusion("warming a region")
							}
						}
						if got := m.RunRegion(prog.Region(r)); !reflect.DeepEqual(got, points[r]) {
							t.Errorf("%v, point %d: stepwise run differs from RunPoints", mode, r)
						}
						inclusion("the detailed region")
					}
				}
			})
		}
	}
}
