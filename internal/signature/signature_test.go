package signature

import (
	"math"
	"testing"
	"testing/quick"

	"barrierpoint/internal/bbv"
	"barrierpoint/internal/ldv"
	"barrierpoint/internal/sparse"
)

func mkData(threads int) *RegionData {
	rd := &RegionData{
		BBV:          make([]bbv.Vector, threads),
		LDV:          make([]ldv.Histogram, threads),
		ThreadInstrs: make([]uint64, threads),
	}
	for t := 0; t < threads; t++ {
		v := bbv.New()
		v.Add(1, 10*(t+1))
		v.Add(2, 5)
		rd.BBV[t] = v
		var h ldv.Histogram
		h.Add(1)
		h.Add(100)
		h.AddCold()
		rd.LDV[t] = h
		rd.ThreadInstrs[t] = uint64(10*(t+1) + 5)
		rd.TotalInstrs += rd.ThreadInstrs[t]
	}
	return rd
}

func mass(sv SV) float64 { return sv.Total() }

func TestBuildNormalization(t *testing.T) {
	for _, kind := range []Kind{BBVOnly, LDVOnly, Combined} {
		sv := Build(mkData(4), Options{Kind: kind})
		if len(sv) == 0 {
			t.Fatalf("%v: empty signature", kind)
		}
		if math.Abs(mass(sv)-1) > 1e-9 {
			t.Errorf("%v: mass = %v, want 1", kind, mass(sv))
		}
	}
}

func TestBuildKindsSelectFeatures(t *testing.T) {
	rd := mkData(2)
	bOnly := Build(rd, Options{Kind: BBVOnly})
	lOnly := Build(rd, Options{Kind: LDVOnly})
	comb := Build(rd, Options{Kind: Combined})
	if Distance(bOnly, lOnly) < 1.99 {
		t.Error("BBV-only and LDV-only signatures share features")
	}
	if len(comb) != len(bOnly)+len(lOnly) {
		t.Errorf("combined has %d features, want %d", len(comb), len(bOnly)+len(lOnly))
	}
}

func TestSumVsConcat(t *testing.T) {
	// Imbalanced threads: concatenation separates them, summation hides it.
	rd1 := mkData(2)
	// rd2 swaps the two threads' BBVs.
	rd2 := mkData(2)
	rd2.BBV[0], rd2.BBV[1] = rd2.BBV[1], rd2.BBV[0]
	concat1 := Build(rd1, Options{Kind: BBVOnly})
	concat2 := Build(rd2, Options{Kind: BBVOnly})
	if Distance(concat1, concat2) == 0 {
		t.Error("concatenated SVs identical despite per-thread swap")
	}
	sum1 := Build(rd1, Options{Kind: BBVOnly, SumThreads: true})
	sum2 := Build(rd2, Options{Kind: BBVOnly, SumThreads: true})
	if d := Distance(sum1, sum2); d > 1e-9 {
		t.Errorf("summed SVs differ (%v) despite identical aggregate", d)
	}
}

func TestLDVWeighting(t *testing.T) {
	rd := mkData(1)
	plain := Build(rd, Options{Kind: LDVOnly})
	weighted := Build(rd, Options{Kind: LDVOnly, LDVWeightV: 2})
	if Distance(plain, weighted) == 0 {
		t.Error("weighting changed nothing")
	}
	if math.Abs(mass(weighted)-1) > 1e-9 {
		t.Error("weighted SV not normalized")
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(seedA, seedB uint8) bool {
		mk := func(seed uint8) SV {
			rd := mkData(int(seed%3) + 1)
			rd.BBV[0].Add(int(seed), 7)
			return Build(rd, Options{Kind: Combined})
		}
		a, b := mk(seedA), mk(seedB)
		dAB, dBA := Distance(a, b), Distance(b, a)
		return math.Abs(dAB-dBA) < 1e-12 && dAB >= 0 && dAB <= 2+1e-9 && Distance(a, a) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBuildWideBlockKeys: block IDs at or past 2^48 are truncated into the
// 48-bit feature field by key(); Build must still emit a sorted,
// duplicate-free SV with colliding features summed (the map-era
// semantics), not a silently mis-ordered vector that breaks the merge-join
// Distance.
func TestBuildWideBlockKeys(t *testing.T) {
	rd := &RegionData{
		BBV: []bbv.Vector{bbv.Vector(sparse.SortMerge(sparse.Vector{
			{Key: 5, Val: 1},
			{Key: 9, Val: 2},
			{Key: 1<<48 | 5, Val: 3}, // truncates to feature 5
		}))},
	}
	sv := Build(rd, Options{Kind: BBVOnly})
	if !sortedStrict(sv) {
		t.Fatalf("Build emitted an unsorted SV: %v", sv)
	}
	if len(sv) != 2 {
		t.Fatalf("Build emitted %d entries, want 2 (colliding features merged): %v", len(sv), sv)
	}
	wantKeys := []uint64{key(0, 0, 5), key(0, 0, 9)}
	wantVals := []float64{4.0 / 6, 2.0 / 6}
	for i := range sv {
		if sv[i].Key != wantKeys[i] || math.Abs(sv[i].Val-wantVals[i]) > 1e-12 {
			t.Errorf("sv[%d] = %+v, want key %#x val %v", i, sv[i], wantKeys[i], wantVals[i])
		}
	}
}

func TestIdenticalRegionsZeroDistance(t *testing.T) {
	a := Build(mkData(4), Default())
	b := Build(mkData(4), Default())
	if d := Distance(a, b); d > 1e-12 {
		t.Errorf("identical regions have distance %v", d)
	}
}

// TestDistanceZeroAllocs is the allocation-regression cap of the ISSUE:
// the merge-join Distance never allocates.
func TestDistanceZeroAllocs(t *testing.T) {
	a := Build(mkData(4), Default())
	b := Build(mkData(3), Default())
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += Distance(a, b)
	})
	if allocs != 0 {
		t.Errorf("Distance allocates %.2f times per call, want 0", allocs)
	}
	_ = sink
}

func TestLabels(t *testing.T) {
	cases := []struct {
		o    Options
		want string
	}{
		{Options{Kind: BBVOnly}, "bbv"},
		{Options{Kind: LDVOnly}, "reuse_dist"},
		{Options{Kind: LDVOnly, LDVWeightV: 2}, "reuse_dist-1_2"},
		{Options{Kind: Combined, LDVWeightV: 5}, "combine-1_5"},
		{Options{Kind: Combined, SumThreads: true}, "combine-sum"},
	}
	for _, c := range cases {
		if got := c.o.Label(); got != c.want {
			t.Errorf("Label = %q, want %q", got, c.want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

// refBuild is a direct port of the seed's map-based Build, kept as the
// equivalence reference for the flat sorted pipeline.
func refBuild(rd *RegionData, o Options) map[uint64]float64 {
	sv := make(map[uint64]float64)
	threads := len(rd.BBV)
	useBBV := o.Kind == BBVOnly || o.Kind == Combined
	useLDV := o.Kind == LDVOnly || o.Kind == Combined
	for t := 0; t < threads; t++ {
		slot := t
		if o.SumThreads {
			slot = 0
		}
		if useBBV {
			for _, e := range rd.BBV[t].Normalized() {
				sv[key(0, slot, e.Key)] += e.Val
			}
		}
		if useLDV {
			h := rd.LDV[t]
			if o.LDVWeightV > 0 {
				h = h.Weighted(o.LDVWeightV)
			}
			h = h.Normalized()
			for n, w := range h.Buckets {
				if w != 0 {
					sv[key(1, slot, uint64(n))] += w
				}
			}
			if h.Cold != 0 {
				sv[key(1, slot, uint64(ldv.NumBuckets))] += h.Cold
			}
		}
	}
	var total float64
	for _, w := range sv {
		total += w
	}
	if total > 0 {
		for k := range sv {
			sv[k] /= total
		}
	}
	return sv
}

// TestBuildMatchesMapReference proves the flat pipeline is equivalent to
// the seed's map-based construction across kinds, weighting and thread
// aggregation modes.
func TestBuildMatchesMapReference(t *testing.T) {
	opts := []Options{
		{Kind: BBVOnly},
		{Kind: LDVOnly},
		{Kind: Combined},
		{Kind: Combined, LDVWeightV: 2},
		{Kind: Combined, SumThreads: true},
		{Kind: BBVOnly, SumThreads: true},
	}
	for _, o := range opts {
		for _, threads := range []int{1, 2, 4} {
			rd := mkData(threads)
			got := Build(rd, o)
			var want SV
			for k, w := range refBuild(rd, o) {
				want = append(want, sparse.Entry{Key: k, Val: w})
			}
			want = sparse.SortMerge(want)
			if len(got) != len(want) {
				t.Errorf("%v threads=%d: %d features, want %d", o, threads, len(got), len(want))
				continue
			}
			if d := Distance(got, want); d > 1e-12 {
				t.Errorf("%v threads=%d: distance to reference = %v", o, threads, d)
			}
			for i := 1; i < len(got); i++ {
				if got[i-1].Key >= got[i].Key {
					t.Fatalf("%v threads=%d: SV not strictly sorted at %d", o, threads, i)
				}
			}
		}
	}
}

func TestBuildAll(t *testing.T) {
	rds := []*RegionData{mkData(2), mkData(2), mkData(3)}
	svs, weights := BuildAll(rds, Default())
	if len(svs) != 3 || len(weights) != 3 {
		t.Fatal("wrong lengths")
	}
	for i, rd := range rds {
		if weights[i] != float64(rd.TotalInstrs) {
			t.Errorf("weight %d = %v", i, weights[i])
		}
	}
}
