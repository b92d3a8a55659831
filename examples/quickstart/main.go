// Quickstart: the complete BarrierPoint flow on one workload in ~30 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	bp "barrierpoint"
	"barrierpoint/internal/workload"
)

func main() {
	// 1. A barrier-synchronized multi-threaded program (npb-ft stand-in,
	//    8 threads).
	prog := workload.New("npb-ft", 8)
	machine := bp.TableIMachine(1) // the paper's 8-core Table I machine

	// 2. One-time analysis: profile every inter-barrier region and select
	//    representative barrierpoints with multipliers.
	analysis, err := bp.Analyze(prog, bp.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d regions -> %d barrierpoints\n", prog.Regions(), len(analysis.Selection.Points))
	for _, p := range analysis.Selection.Points {
		fmt.Printf("  region %2d  multiplier %6.2f  weight %.3f\n", p.Region, p.Multiplier, p.Weight)
	}

	// 3. Simulate only the barrierpoints (in parallel, MRU-warmed) and
	//    reconstruct whole-program execution time.
	est, err := analysis.Estimate(machine, bp.MRUPrevWarmup)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nestimated runtime %.3f ms (IPC %.2f, DRAM APKI %.2f)\n",
		est.TimeNs/1e6, est.IPC(), est.DRAMAPKI())
	fmt.Printf("simulation reduction: %.1fx serial, %.1fx parallel\n",
		analysis.SerialSpeedup(), analysis.ParallelSpeedup())

	// 4. Validate against the full detailed simulation (the expensive path
	//    BarrierPoint replaces).
	full, err := bp.SimulateFull(prog, machine)
	if err != nil {
		log.Fatal(err)
	}
	act := bp.ActualFrom(full)
	fmt.Printf("actual    runtime %.3f ms -> error %.2f%%\n",
		act.TimeNs/1e6, 100*(est.TimeNs-act.TimeNs)/act.TimeNs)
}
