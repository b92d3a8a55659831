package warmup

import (
	"testing"

	"barrierpoint/internal/workload"
)

// BenchmarkWarmupCapture measures one prefix pass at the shape of the
// end-to-end benchmark's cold-big-regions workload: npb-cg, 8 threads,
// scale 0.5 (46 regions), six snapshots spread over the program, capacity
// of one Table I LLC (8 MiB of 64-byte lines).
func BenchmarkWarmupCapture(b *testing.B) {
	p := workload.New("npb-cg", 8, workload.WithScale(0.5))
	points := []int{3, 10, 18, 25, 33, 44}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := Capture(p, points, 131072); len(got) != len(points) {
			b.Fatalf("captured %d snapshots, want %d", len(got), len(points))
		}
	}
}
