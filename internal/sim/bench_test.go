package sim_test

import (
	"testing"

	"barrierpoint/internal/sim"
	"barrierpoint/internal/trace"
	"barrierpoint/internal/warmup"
	"barrierpoint/internal/workload"
)

// The three benchmarks below are frozen names over one frozen input: npb-cg,
// 8 threads, scale 0.5 (the end-to-end benchmark's cold-big-regions shape)
// on the Table I single-socket machine. Together they are the three phases
// of one sampled point — snapshot replay, functional warming of the
// preceding regions, detailed simulation — so their ratio says whether
// functional warming is cheaper than the detailed simulation it stands in
// for. Changing what one of them does means a new name.

func benchProgram() *workload.Program {
	return workload.New("npb-cg", 8, workload.WithScale(0.5))
}

// programInstrs counts the instructions of every region of p.
func programInstrs(p *workload.Program) (instrs uint64) {
	var be trace.BlockExec
	for i := 0; i < p.Regions(); i++ {
		for t := 0; t < p.Threads(); t++ {
			for s := p.Region(i).Thread(t); s.Next(&be); {
				instrs += uint64(be.Instrs)
			}
		}
	}
	return instrs
}

// BenchmarkRunRegion is detailed simulation: every region of the program in
// order on one machine (a full simulation per iteration).
func BenchmarkRunRegion(b *testing.B) {
	prog := benchProgram()
	cfg := sim.TableI(1)
	instrs := programInstrs(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.New(cfg)
		for r := 0; r < prog.Regions(); r++ {
			m.RunRegion(prog.Region(r))
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkWarmRegion is functional warming of the same regions: caches,
// directory, predictors and instruction caches update, no time passes.
func BenchmarkWarmRegion(b *testing.B) {
	prog := benchProgram()
	cfg := sim.TableI(1)
	instrs := programInstrs(prog)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sim.New(cfg)
		for r := 0; r < prog.Regions(); r++ {
			m.WarmRegion(prog.Region(r))
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkWarmAccessReplay replays the MRU snapshot captured at the entry
// of the program's last region (the fullest one) onto a fresh machine.
func BenchmarkWarmAccessReplay(b *testing.B) {
	prog := benchProgram()
	cfg := sim.TableI(1)
	last := prog.Regions() - 1
	snap := warmup.Capture(prog, []int{last}, cfg.L3.Lines()*cfg.Sockets)[last]
	var accesses uint64
	for _, entries := range snap {
		accesses += uint64(len(entries))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmup.Replay(sim.New(cfg), snap)
	}
	b.ReportMetric(float64(accesses)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Maccess/s")
}
