package sim

// Coherence states for lines in private caches (MSI without E; the S state
// also covers clean-exclusive). A resident line is never stateInvalid: an
// invalid way holds no line at all.
const (
	stateInvalid uint8 = iota
	stateShared
	stateModified
)

// invalidTag marks an empty way. No line can equal it: line addresses are
// byte addresses shifted right by trace.LineShift.
const invalidTag = ^uint64(0)

// sets is the one set-associative LRU array behind every cache level: P is
// what a level keeps beside each line (the MSI state in L1I/L1D/L2, the
// directory entry in the LLC). Tags are full line addresses, so lookups and
// invalidations need no address reassembly.
//
// Each set holds its resident lines packed at the front in MRU→LRU order,
// invalidTag in the ways after them. Recency is the position, so a hit moves
// the line to the front, the victim of a full set is its last way, and no
// timestamp is kept. See the package comment for why that is exact.
type sets[P any] struct {
	tags    []uint64 // sets*ways, row-major by set
	pay     []P      // pay[i] belongs to the line in tags[i]
	ways    int
	setMask uint64
}

// cache is a private cache level: the payload is the line's MSI state.
type cache = sets[uint8]

func newSets[P any](cfg CacheConfig) sets[P] {
	n := cfg.Sets()
	s := sets[P]{
		tags:    make([]uint64, n*cfg.Ways),
		pay:     make([]P, n*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(n - 1),
	}
	s.reset()
	return s
}

func newCache(cfg CacheConfig) *cache {
	s := newSets[uint8](cfg)
	return &s
}

// set returns the ways of the set line maps to.
func (s *sets[P]) set(line uint64) ([]uint64, []P) {
	lo := int(line&s.setMask) * s.ways
	return s.tags[lo : lo+s.ways], s.pay[lo : lo+s.ways]
}

// lookup finds a line and makes it the set's most recently used. It returns
// the line's payload, nil when the line is not present. The pointer stays
// good until the next lookup or insert on the same set.
func (s *sets[P]) lookup(line uint64) *P {
	tags, pay := s.set(line)
	for i, t := range tags {
		if t == line {
			if i > 0 {
				p := pay[i]
				copy(tags[1:i+1], tags[:i])
				copy(pay[1:i+1], pay[:i])
				tags[0], pay[0] = line, p
			}
			return &pay[0]
		}
	}
	return nil
}

// peek finds a line without touching the recency order.
func (s *sets[P]) peek(line uint64) *P {
	tags, pay := s.set(line)
	for i, t := range tags {
		if t == line {
			return &pay[i]
		}
	}
	return nil
}

// victim returns the line an insert into line's set would evict: the last
// way of a full set. full is false while the set has an empty way.
func (s *sets[P]) victim(line uint64) (tag uint64, p P, full bool) {
	tags, pay := s.set(line)
	last := len(tags) - 1
	return tags[last], pay[last], tags[last] != invalidTag
}

// insert places a line (assumed absent) as the most recently used of its
// set, every line before the first empty way moving back one place. The
// LRU line of a full set drops off the end and is returned; evicted is
// false when an empty way was available.
func (s *sets[P]) insert(line uint64, p P) (victim uint64, vp P, evicted bool) {
	tags, pay := s.set(line)
	for i := range tags {
		tags[i], line = line, tags[i]
		pay[i], p = p, pay[i]
		if line == invalidTag {
			return 0, vp, false
		}
	}
	return line, p, true
}

// invalidate removes a line, closing the gap it leaves, and returns its
// payload: the zero P (stateInvalid) when the line was not present.
func (s *sets[P]) invalidate(line uint64) (p P) {
	tags, pay := s.set(line)
	for i, t := range tags {
		if t == line {
			p = pay[i]
			copy(tags[i:], tags[i+1:])
			copy(pay[i:], pay[i+1:])
			tags[len(tags)-1] = invalidTag
			return p
		}
	}
	return p
}

// reset empties every set. Payloads of empty ways are never read; clearing
// them makes a reset array equal to a new one, which TestReset checks.
func (s *sets[P]) reset() {
	for i := range s.tags {
		s.tags[i] = invalidTag
	}
	clear(s.pay)
}

// occupancy counts resident lines (used by tests and inclusion checks).
func (s *sets[P]) occupancy() int {
	n := 0
	for _, t := range s.tags {
		if t != invalidTag {
			n++
		}
	}
	return n
}
