package obs

import (
	"runtime/debug"
	"runtime/metrics"
)

// RegisterProcess adds what every daemon reports about its own process: the
// Go runtime's memory and collector state, read at scrape time, and the
// simulator's machine free list (pass sim.FreeListStats). Together with a
// cache's byte gauge they say how much of the resident set is live data and
// what collecting the rest costs.
func RegisterProcess(r *Registry, machines func() (built, reused uint64)) {
	read := func(name string) float64 {
		s := []metrics.Sample{{Name: name}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindFloat64 {
			return s[0].Value.Float64()
		}
		return float64(s[0].Value.Uint64())
	}
	r.GaugeFunc("bp_go_heap_live_bytes", "Heap bytes the last collection cycle found reachable.",
		func() float64 { return read("/gc/heap/live:bytes") })
	r.GaugeFunc("bp_go_memory_mapped_bytes", "Bytes held from the OS and not released back: what the resident set can reach.",
		func() float64 {
			return read("/memory/classes/total:bytes") - read("/memory/classes/heap/released:bytes")
		})
	r.CounterFunc("bp_go_gc_cycles_total", "Completed collection cycles.",
		func() float64 { return read("/gc/cycles/total:gc-cycles") })
	r.GaugeFunc("bp_go_gc_cpu_fraction", "Share of the process's available CPU time spent collecting, since start.",
		func() float64 { // both read 0 until the first cycle ends
			return read("/cpu/classes/gc/total:cpu-seconds") / max(read("/cpu/classes/total:cpu-seconds"), 1e-9)
		})
	r.GaugeFunc("bp_go_gc_last_pause_seconds", "Stop-the-world pause of the most recent collection cycle.",
		func() float64 {
			var st debug.GCStats
			debug.ReadGCStats(&st)
			return append(st.Pause, 0)[0].Seconds() // most recent first; 0 before any cycle
		})
	r.GaugeFunc("bp_go_goroutines", "Live goroutines.",
		func() float64 { return read("/sched/goroutines:goroutines") })
	r.CounterFunc("bp_sim_machines_built_total", "Point simulations that allocated their machine (free-list misses).",
		func() float64 { b, _ := machines(); return float64(b) })
	r.CounterFunc("bp_sim_machines_reused_total", "Point simulations that ran on a Reset machine from the free list.",
		func() float64 { _, u := machines(); return float64(u) })
}
