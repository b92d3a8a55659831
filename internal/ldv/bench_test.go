package ldv

import (
	"testing"

	"barrierpoint/internal/trace"
	"barrierpoint/internal/workload"
)

// BenchmarkLDVProfiler profiles every (region, thread) line stream of
// npb-cg ×0.5, the cold-big-regions shape, through one profiler reset
// between streams as the profiling pass's pool does. The streams are
// decoded once, outside the timer, so the benchmark times Access alone.
// Frozen name: CI's benchmark trajectory records its Maccess/s.
func BenchmarkLDVProfiler(b *testing.B) {
	prog := workload.New("npb-cg", 8, workload.WithScale(0.5))
	var streams [][]uint64
	var accesses uint64
	for r := 0; r < prog.Regions(); r++ {
		for t := 0; t < prog.Threads(); t++ {
			var lines []uint64
			s := prog.Region(r).Thread(t)
			var be trace.BlockExec
			for s.Next(&be) {
				for _, a := range be.Accs {
					lines = append(lines, trace.LineAddr(a.Addr))
				}
			}
			streams = append(streams, lines)
			accesses += uint64(len(lines))
		}
	}
	p := NewProfiler(4096)
	var sink int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lines := range streams {
			for _, l := range lines {
				d, _ := p.Access(l)
				sink += d
			}
			p.Reset()
		}
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccess/s")
	if sink < 0 {
		b.Fatal("negative distance sum")
	}
}
