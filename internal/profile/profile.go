// Package profile is the stand-in for the paper's Pin-based instrumentation:
// a single functional pass over a program's trace streams that produces, for
// every inter-barrier region, per-thread basic block vectors and LRU stack
// distance vectors, plus instruction counts.
//
// Profiles are microarchitecture-independent: they are computed from the
// trace alone. Regions are profiled concurrently (they are independent by
// construction), with results ordered deterministically by region index.
package profile

import (
	"fmt"
	"sync"

	"barrierpoint/internal/bbv"
	"barrierpoint/internal/ldv"
	"barrierpoint/internal/par"
	"barrierpoint/internal/signature"
	"barrierpoint/internal/sparse"
	"barrierpoint/internal/trace"
)

// Profiling scratch state, pooled across regions: the LDV profiler's
// last-access table and Fenwick tree, and the BBV accumulator, are the two
// big per-region structures. Both reset to clean state without releasing
// storage, so the steady-state profiling pass allocates only the retained
// per-region results. Objects are Reset before Put, never after Get.
var (
	profilerPool = sync.Pool{New: func() any { return ldv.NewProfiler(4096) }}
	accPool      = sync.Pool{New: func() any { return sparse.NewAccumulator(256) }}
)

// Region profiles one region of a program.
func Region(r trace.Region, threads int) *signature.RegionData {
	rd := &signature.RegionData{
		BBV:          make([]bbv.Vector, threads),
		LDV:          make([]ldv.Histogram, threads),
		ThreadInstrs: make([]uint64, threads),
	}
	acc := accPool.Get().(*sparse.Accumulator)
	p := profilerPool.Get().(*ldv.Profiler)
	for t := 0; t < threads; t++ {
		s := r.Thread(t)
		var h ldv.Histogram
		var be trace.BlockExec
		var instrs uint64
		for s.Next(&be) {
			acc.Add(uint64(be.Block), float64(be.Instrs))
			instrs += uint64(be.Instrs)
			for _, a := range be.Accs {
				d, cold := p.Access(trace.LineAddr(a.Addr))
				if cold {
					h.AddCold()
				} else {
					h.Add(d)
				}
			}
		}
		rd.BBV[t] = bbv.FromAccumulator(acc)
		acc.Reset()
		p.Reset()
		rd.LDV[t] = h
		rd.ThreadInstrs[t] = instrs
		rd.TotalInstrs += instrs
	}
	accPool.Put(acc)
	profilerPool.Put(p)
	return rd
}

// Program profiles every region of a program, in parallel across regions.
// It returns the first error a region's streams ended on (a damaged trace
// file) instead of profiles of truncated streams.
func Program(p trace.Program) ([]*signature.RegionData, error) {
	out := make([]*signature.RegionData, p.Regions())
	errs := make([]error, len(out))
	par.For(len(out), func(i int) {
		r := trace.CheckedRegion{Region: p.Region(i)}
		out[i] = Region(&r, p.Threads())
		errs[i] = r.Err()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("profile: region %d: %w", i, err)
		}
	}
	return out, nil
}

// Weights extracts the per-region aggregate instruction counts as float64
// clustering weights.
func Weights(rds []*signature.RegionData) []float64 {
	w := make([]float64, len(rds))
	for i, rd := range rds {
		w[i] = float64(rd.TotalInstrs)
	}
	return w
}
