package warmup

import (
	"testing"

	"barrierpoint/internal/workload"
)

// BenchmarkWarmupCapture measures one prefix pass at the shape of the
// end-to-end benchmark's cold-big-regions workload: npb-cg, 8 threads,
// scale 0.5 (46 regions), six snapshots spread over the program, capacity
// of one Table I LLC (8 MiB of 64-byte lines). Its lines fill their
// 16-line index pages.
func BenchmarkWarmupCapture(b *testing.B) {
	benchmarkCapture(b, "npb-cg", 0.5, []int{3, 10, 18, 25, 33, 44})
}

// BenchmarkWarmupCaptureSparse is BenchmarkWarmupCapture on one of the
// warm-sweep workload's traces: npb-is, 8 threads, scale 1 (11 regions),
// whose lines are scattered, under three per index page.
func BenchmarkWarmupCaptureSparse(b *testing.B) {
	benchmarkCapture(b, "npb-is", 1, []int{1, 3, 5, 7, 9, 10})
}

func benchmarkCapture(b *testing.B, bench string, scale float64, points []int) {
	p := workload.New(bench, 8, workload.WithScale(scale))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := capture(b, p, points, 131072); len(got) != len(points) {
			b.Fatalf("captured %d snapshots, want %d", len(got), len(points))
		}
	}
}
