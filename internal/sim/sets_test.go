package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"barrierpoint/internal/trace"
)

// refCache and refLLC are the timestamp-LRU array-of-structs caches the
// recency-ordered sets replaced, kept verbatim as the reference the
// differential tests below compare against: every way carries a lastUse
// stamp, a hit re-stamps it, and a miss scans the set for an invalid way or
// the smallest stamp.

type refLine struct {
	tag     uint64
	lastUse uint64
	state   uint8
}

type refCache struct {
	lines   []refLine // sets*ways, row-major by set
	ways    int
	setMask uint64
	useCtr  uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	n := cfg.Sets()
	return &refCache{lines: make([]refLine, n*cfg.Ways), ways: cfg.Ways, setMask: uint64(n - 1)}
}

func (c *refCache) set(line uint64) []refLine {
	s := int(line&c.setMask) * c.ways
	return c.lines[s : s+c.ways]
}

func (c *refCache) lookup(line uint64) *refLine {
	set := c.set(line)
	for i := range set {
		if set[i].state != stateInvalid && set[i].tag == line {
			c.useCtr++
			set[i].lastUse = c.useCtr
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) peek(line uint64) *refLine {
	set := c.set(line)
	for i := range set {
		if set[i].state != stateInvalid && set[i].tag == line {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) insert(line uint64, state uint8) (victim uint64, victimState uint8, evicted bool) {
	set := c.set(line)
	vi := 0
	for i := range set {
		if set[i].state == stateInvalid {
			vi = i
			evicted = false
			goto place
		}
		if set[i].lastUse < set[vi].lastUse {
			vi = i
		}
	}
	victim, victimState, evicted = set[vi].tag, set[vi].state, true
place:
	c.useCtr++
	set[vi] = refLine{tag: line, lastUse: c.useCtr, state: state}
	return victim, victimState, evicted
}

func (c *refCache) invalidate(line uint64) uint8 {
	set := c.set(line)
	for i := range set {
		if set[i].state != stateInvalid && set[i].tag == line {
			st := set[i].state
			set[i].state = stateInvalid
			return st
		}
	}
	return stateInvalid
}

func (c *refCache) reset() {
	for i := range c.lines {
		c.lines[i] = refLine{}
	}
	c.useCtr = 0
}

func (c *refCache) occupancy() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].state != stateInvalid {
			n++
		}
	}
	return n
}

type refDirLine struct {
	tag     uint64
	lastUse uint64
	sharers uint64
	owner   int8
	valid   bool
	dirty   bool
}

type refLLC struct {
	lines   []refDirLine
	ways    int
	setMask uint64
	useCtr  uint64
}

func newRefLLC(cfg CacheConfig) *refLLC {
	n := cfg.Sets()
	return &refLLC{lines: make([]refDirLine, n*cfg.Ways), ways: cfg.Ways, setMask: uint64(n - 1)}
}

func (l *refLLC) set(line uint64) []refDirLine {
	s := int(line&l.setMask) * l.ways
	return l.lines[s : s+l.ways]
}

func (l *refLLC) lookup(line uint64) *refDirLine {
	set := l.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			l.useCtr++
			set[i].lastUse = l.useCtr
			return &set[i]
		}
	}
	return nil
}

func (l *refLLC) victim(line uint64) *refDirLine {
	set := l.set(line)
	vi := 0
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if set[i].lastUse < set[vi].lastUse {
			vi = i
		}
	}
	return &set[vi]
}

func (l *refLLC) place(v *refDirLine, line uint64, core int, write bool) {
	l.useCtr++
	*v = refDirLine{tag: line, lastUse: l.useCtr, sharers: 1 << uint(core), owner: -1, valid: true, dirty: write}
	if write {
		v.owner = int8(core)
	}
}

func (l *refLLC) reset() {
	for i := range l.lines {
		l.lines[i] = refDirLine{}
	}
	l.useCtr = 0
}

func (l *refLLC) occupancy() int {
	n := 0
	for i := range l.lines {
		if l.lines[i].valid {
			n++
		}
	}
	return n
}

// resident is one valid way of a reference set: its line, its payload in the
// new representation's terms, and the stamp that orders it.
type resident[P comparable] struct {
	tag     uint64
	pay     P
	lastUse uint64
}

func (c *refCache) residents(line uint64, buf []resident[uint8]) []resident[uint8] {
	for _, l := range c.set(line) {
		if l.state != stateInvalid {
			buf = append(buf, resident[uint8]{l.tag, l.state, l.lastUse})
		}
	}
	return buf
}

func (l *refLLC) residents(line uint64, buf []resident[dirEntry]) []resident[dirEntry] {
	for _, d := range l.set(line) {
		if d.valid {
			buf = append(buf, resident[dirEntry]{d.tag, dirEntry{d.sharers, d.owner, d.dirty}, d.lastUse})
		}
	}
	return buf
}

// sameSet compares one set of s with the valid ways of the reference's: the
// same lines with the same payloads, s holding them most recently stamped
// first, packed at the front, and nothing but invalidTag after them.
func sameSet[P comparable](s *sets[P], line uint64, ref []resident[P]) bool {
	slices.SortFunc(ref, func(a, b resident[P]) int { return cmp.Compare(b.lastUse, a.lastUse) })
	tags, pay := s.set(line)
	for i, tag := range tags {
		if i < len(ref) && (tag != ref[i].tag || pay[i] != ref[i].pay) {
			return false
		}
		if i >= len(ref) && tag != invalidTag {
			return false
		}
	}
	return len(ref) <= len(tags)
}

// kernelGeometries are the cache shapes of the two machines the repository
// simulates; each is driven as a private cache and as an LLC slice.
func kernelGeometries() map[string]CacheConfig {
	out := map[string]CacheConfig{}
	for name, cfg := range map[string]Config{"tiny": Tiny(8), "tableI": TableI(1)} {
		out[name+"/L1I"] = cfg.L1I
		out[name+"/L1D"] = cfg.L1D
		out[name+"/L2"] = cfg.L2
		out[name+"/L3"] = cfg.L3
	}
	return out
}

// kernelOps is how many random operations each geometry gets, as a private
// cache and again as an LLC slice; every resetEvery-th one empties the cache.
const (
	kernelOps  = 1_000_000
	resetEvery = 20_000
	sweepEvery = 1 << 16 // whole-cache comparison; the touched set is compared every step
)

// lineSource draws line addresses that collide: most land in a handful of
// hot sets with about twice as many distinct lines as ways (full sets, hits
// at every recency rank, evictions), the rest anywhere in the cache.
type lineSource struct {
	rng  *rand.Rand
	sets uint64
	ways uint64
	hot  []uint64
}

func newLineSource(rng *rand.Rand, cfg CacheConfig) *lineSource {
	s := &lineSource{rng: rng, sets: uint64(cfg.Sets()), ways: uint64(cfg.Ways)}
	for i := 0; i < 6; i++ {
		s.hot = append(s.hot, uint64(rng.Intn(cfg.Sets())))
	}
	return s
}

func (s *lineSource) next() uint64 {
	set := s.hot[s.rng.Intn(len(s.hot))]
	if s.rng.Intn(8) == 0 {
		set = uint64(s.rng.Intn(int(s.sets)))
	}
	return uint64(s.rng.Intn(int(2*s.ways+1)))*s.sets + set
}

// TestSetsMatchTimestampLRU drives the recency-ordered sets and the
// timestamp-LRU reference with the same seeded random operations, as a
// private cache and as an LLC slice, on every geometry of the Tiny and
// Table I machines. After every operation the return values and the touched
// set (resident lines, payloads, recency order) must agree; occupancy and
// every set of the cache are compared every sweepEvery operations.
func TestSetsMatchTimestampLRU(t *testing.T) {
	ops := kernelOps
	if testing.Short() {
		ops /= 20
	}
	for name, cfg := range kernelGeometries() {
		name, cfg := name, cfg
		t.Run(name+"/private", func(t *testing.T) {
			t.Parallel()
			diffPrivate(t, cfg, ops, 1)
		})
		t.Run(name+"/llc", func(t *testing.T) {
			t.Parallel()
			diffLLC(t, cfg, ops, 2)
		})
	}
}

func diffPrivate(t *testing.T, cfg CacheConfig, ops int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	src := newLineSource(rng, cfg)
	ref, got := newRefCache(cfg), newCache(cfg)
	var buf []resident[uint8]
	same := func(step int, op string, line uint64) {
		t.Helper()
		if buf = ref.residents(line, buf[:0]); !sameSet(got, line, buf) {
			tags, pay := got.set(line)
			t.Fatalf("step %d, %s %#x: set differs\n ref %v\n got %x %v", step, op, line, buf, tags, pay)
		}
	}
	for step := 0; step < ops; step++ {
		line := src.next()
		var op string
		switch k := rng.Intn(100); {
		case k < 40:
			op = "lookup"
			r, g := ref.lookup(line), got.lookup(line)
			if (r == nil) != (g == nil) || (r != nil && r.state != *g) {
				t.Fatalf("step %d, lookup %#x: ref %v, got %v", step, line, r, g)
			}
			if r != nil && rng.Intn(3) == 0 { // upgrade through the held pointer
				r.state, *g = stateModified, stateModified
			}
		case k < 50:
			op = "peek"
			r, g := ref.peek(line), got.peek(line)
			if (r == nil) != (g == nil) || (r != nil && r.state != *g) {
				t.Fatalf("step %d, peek %#x: ref %v, got %v", step, line, r, g)
			}
			if r != nil && rng.Intn(2) == 0 { // dirty writeback into a lower level
				r.state, *g = stateModified, stateModified
			}
		case k < 85:
			op = "insert"
			if ref.peek(line) != nil {
				continue // insert assumes the line absent
			}
			st := stateShared + uint8(rng.Intn(2))
			rv, rs, re := ref.insert(line, st)
			gv, gs, ge := got.insert(line, st)
			if rv != gv || rs != gs || re != ge {
				t.Fatalf("step %d, insert %#x: ref (%#x, %d, %v), got (%#x, %d, %v)", step, line, rv, rs, re, gv, gs, ge)
			}
		default:
			op = "invalidate"
			if r, g := ref.invalidate(line), got.invalidate(line); r != g {
				t.Fatalf("step %d, invalidate %#x: ref %d, got %d", step, line, r, g)
			}
		}
		if step%resetEvery == resetEvery-1 {
			op = "reset"
			ref.reset()
			got.reset()
		}
		same(step, op, line)
		if step%sweepEvery == 0 || step == ops-1 {
			if r, g := ref.occupancy(), got.occupancy(); r != g {
				t.Fatalf("step %d: occupancy ref %d, got %d", step, r, g)
			}
			for s := 0; s < cfg.Sets(); s++ {
				same(step, "sweep", uint64(s))
			}
		}
	}
}

func diffLLC(t *testing.T, cfg CacheConfig, ops int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	src := newLineSource(rng, cfg)
	ref, got := newRefLLC(cfg), newLLC(cfg)
	var buf []resident[dirEntry]
	same := func(step int, op string, line uint64) {
		t.Helper()
		if buf = ref.residents(line, buf[:0]); !sameSet(&got.sets, line, buf) {
			tags, pay := got.set(line)
			t.Fatalf("step %d, %s %#x: set differs\n ref %v\n got %x %v", step, op, line, buf, tags, pay)
		}
	}
	sameEntry := func(r *refDirLine, g *dirEntry) bool {
		return (r == nil) == (g == nil) && (r == nil || dirEntry{r.sharers, r.owner, r.dirty} == *g)
	}
	for step := 0; step < ops; step++ {
		line := src.next()
		core := rng.Intn(8)
		// The machine's one access pattern: lookup, on a miss read the
		// victim, then place the new line.
		r, g := ref.lookup(line), got.lookup(line)
		if !sameEntry(r, g) {
			t.Fatalf("step %d, lookup %#x: ref %+v, got %+v", step, line, r, g)
		}
		if r != nil {
			if rng.Intn(2) == 0 { // a directory update through the held pointer
				r.sharers |= 1 << uint(core)
				g.sharers |= 1 << uint(core)
				r.dirty, g.dirty = true, true
				r.owner, g.owner = int8(core), int8(core)
			}
		} else {
			rv := ref.victim(line)
			gtag, gv, full := got.victim(line)
			if rv.valid != full || (full && (rv.tag != gtag || !sameEntry(rv, &gv))) {
				t.Fatalf("step %d, victim %#x: ref %+v, got (%#x, %+v, %v)", step, line, rv, gtag, gv, full)
			}
			write := rng.Intn(2) == 0
			ref.place(rv, line, core, write)
			fresh := dirEntry{sharers: 1 << uint(core), owner: -1, dirty: write}
			if write {
				fresh.owner = int8(core)
			}
			got.insert(line, fresh)
		}
		// The reference has no peek (LLCHas scanned the set by hand).
		if got.peek(line) == nil {
			t.Fatalf("step %d, access %#x: line absent afterwards", step, line)
		}
		op := "access"
		if step%resetEvery == resetEvery-1 {
			op = "reset"
			ref.reset()
			got.reset()
		}
		same(step, op, line)
		if step%sweepEvery == 0 || step == ops-1 {
			if r, g := ref.occupancy(), got.occupancy(); r != g {
				t.Fatalf("step %d: occupancy ref %d, got %d", step, r, g)
			}
			for s := 0; s < cfg.Sets(); s++ {
				same(step, "sweep", uint64(s))
			}
		}
	}
}

// TestAccessPathAllocatesNothing caps the steady-state cost of the two
// per-access entry points: a functional WarmAccess and the detailed
// execution of one block, on caches already full so every fill evicts.
func TestAccessPathAllocatesNothing(t *testing.T) {
	m := New(Tiny(2))
	lines := uint64(4 * m.cfg.L3.Lines()) // four times the LLC: steady eviction
	var next uint64
	warm := func() {
		m.WarmAccess(int(next%2), next%lines, next%3 == 0)
		next++
	}
	for i := uint64(0); i < 2*lines; i++ {
		warm()
	}
	if n := testing.AllocsPerRun(1000, warm); n != 0 {
		t.Errorf("WarmAccess allocates %v times per access", n)
	}
	be := trace.BlockExec{Block: 3, Instrs: 8, Branch: true, Taken: true, Accs: make([]trace.Access, 4)}
	detail := func() {
		for i := range be.Accs {
			be.Accs[i] = trace.Access{Addr: (next % lines) * trace.LineSize, Write: next%3 == 0}
			next++
		}
		m.execBlock(int(next%2), &be)
	}
	if n := testing.AllocsPerRun(1000, detail); n != 0 {
		t.Errorf("execBlock allocates %v times per block", n)
	}
	if err := m.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}
