package sim

// dirEntry is what the LLC keeps beside each line: MSI directory state for
// the private caches above it and whether the line differs from memory.
type dirEntry struct {
	sharers uint64 // bit c set: core c's private hierarchy may hold the line
	owner   int8   // core holding the line Modified, or -1
	dirty   bool   // line differs from memory (needs writeback on eviction)
}

// llcSlice is one socket's shared, inclusive L3 with an integrated
// directory, plus that socket's DRAM channel bandwidth model.
type llcSlice struct {
	sets[dirEntry]

	memFree uint64 // cycle at which the DRAM channel is next free
}

func newLLC(cfg CacheConfig) *llcSlice {
	return &llcSlice{sets: newSets[dirEntry](cfg)}
}

// memAccess models one DRAM line transfer issued at cycle now: fixed
// latency plus queueing behind earlier transfers on this socket's channel.
// It returns the total latency seen by the requester.
func (l *llcSlice) memAccess(now, latency, busy uint64) uint64 {
	start := now
	if l.memFree > start {
		start = l.memFree
	}
	l.memFree = start + busy
	return (start - now) + latency
}

func (l *llcSlice) reset() {
	l.sets.reset()
	l.memFree = 0
}
