package warmup

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"barrierpoint/internal/trace"
	"barrierpoint/internal/workload"
)

// refSnapshots runs the reference tracker (the pre-PR 12 map + sort) over
// the whole program once and returns the snapshot at every region's entry.
func refSnapshots(p trace.Program, capacity int) []Snapshot {
	refs := make([]*refTracker, p.Threads())
	for tid := range refs {
		refs[tid] = newRefTracker()
	}
	out := make([]Snapshot, p.Regions())
	for i := range out {
		out[i] = make(Snapshot, len(refs))
		for tid, ref := range refs {
			out[i][tid] = ref.snapshot(capacity)
			s := p.Region(i).Thread(tid)
			var be trace.BlockExec
			for s.Next(&be) {
				for _, a := range be.Accs {
					ref.touch(trace.LineAddr(a.Addr), a.Write)
				}
			}
		}
	}
	return out
}

// TestPassResumesBitIdentical is the resumable pass's property test: seeded
// random request sequences — ascending runs, repeats of the same region,
// backward jumps that force a new Pass — where every Pass.Snapshot must
// deep-equal both the reference tracker's snapshot of that prefix and
// Capture's from a fresh pass, each call is handed a Program the pass has
// never seen (workers reopen the trace per task), and each call replays
// exactly the regions [Pos, at) of it. The tracker is untouched, so
// TestTouchResidentLineZeroAllocs still caps the hot path.
func TestPassResumesBitIdentical(t *testing.T) {
	const capacity = 2048
	for _, name := range []string{"npb-ft", "npb-cg"} {
		base := workload.New(name, 4, workload.WithScale(0.1))
		want := refSnapshots(base, capacity)
		fresh := make(map[int]Snapshot) // Capture's answer, computed once per region asked
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ps := NewPass(base.Threads(), capacity)
			at, passes := 0, 1
			for n := 0; n < 40; n++ {
				switch k := rng.Intn(10); {
				case k == 0: // repeat the region just snapshotted
				case k == 1 && ps.Pos() > 0: // backward jump: the caller's rule is a new pass
					at = rng.Intn(ps.Pos())
					ps = NewPass(base.Threads(), capacity)
					passes++
				default: // ascend, sometimes by zero
					at = min(ps.Pos()+rng.Intn(4), base.Regions()-1)
				}
				from := ps.Pos()
				p := &countingProgram{Program: base}
				got, err := ps.Snapshot(p, at)
				if err != nil {
					t.Fatal(err)
				}
				if ps.Pos() != at {
					t.Fatalf("%s seed %d: Pos = %d after Snapshot(%d)", name, seed, ps.Pos(), at)
				}
				var tracked []int
				for r := from; r < at; r++ {
					tracked = append(tracked, r)
				}
				if !slices.Equal(p.regionCalls, tracked) {
					t.Fatalf("%s seed %d: Snapshot(%d) from %d replayed regions %v, want %v", name, seed, at, from, p.regionCalls, tracked)
				}
				if !reflect.DeepEqual(got, want[at]) {
					t.Fatalf("%s seed %d: region %d (pass from %d) differs from the reference tracker", name, seed, at, from)
				}
				if _, ok := fresh[at]; !ok {
					fresh[at] = capture(t, base, []int{at}, capacity)[at]
				}
				if !reflect.DeepEqual(got, fresh[at]) {
					t.Fatalf("%s seed %d: region %d (pass from %d) differs from a fresh Capture", name, seed, at, from)
				}
			}
			if passes < 2 {
				t.Errorf("%s seed %d: sequence never jumped backwards", name, seed)
			}
		}
	}
}

// TestPassSnapshotBehindPanics: going backwards is the caller's decision to
// start a new pass, never something a pass does silently.
func TestPassSnapshotBehindPanics(t *testing.T) {
	p := workload.New("npb-is", 4, workload.WithScale(0.05))
	ps := NewPass(p.Threads(), 64)
	ps.Snapshot(p, 2)
	defer func() {
		if recover() == nil {
			t.Error("Snapshot behind Pos did not panic")
		}
	}()
	ps.Snapshot(p, 1)
}
