package sparse

// PageLines is the number of consecutive lines one Lines page covers.
const PageLines = 16

// Lines maps cache line addresses to value slots, grouped by page of
// PageLines consecutive lines: a Table from page to its slot array, and a
// cache of the last page looked up. A stream that stays within a page (a
// sweep, a stride under a page) pays one hash probe per change of page, not
// one per line; a page costs one index entry and PageLines slots however
// many of its lines are used. It is the per-line state of the LDV profiler
// (last access time) and of the warm-up tracker (recency-list node).
//
// The zero value is not usable; call NewLines. Slot's hit path is kept
// within the inliner's budget, which is why no zero-value check is in it.
type Lines[V any] struct {
	index   Table[int32] // line/PageLines -> page number in pages
	pages   [][PageLines]V
	lastKey uint64        // line/PageLines of last; ^0 = none, no line maps there
	last    *[PageLines]V // the page last looked up, in pages
}

// NewLines returns an empty line index pre-sized for roughly hint pages.
func NewLines[V any](hint int) *Lines[V] {
	return &Lines[V]{index: *NewTable[int32](hint), lastKey: ^uint64(0)}
}

// Slot returns a pointer to line's value, the zero V for a line never
// written. The pointer is valid until the next Slot or Reset.
func (x *Lines[V]) Slot(line uint64) *V {
	if line/PageLines != x.lastKey {
		x.load(line)
	}
	return &x.last[line%PageLines]
}

// load makes line's page the cached one, appending a zero page if it has
// none yet.
func (x *Lines[V]) load(line uint64) {
	key := line / PageLines
	p, existed := x.index.Upsert(key)
	if !existed {
		*p = int32(len(x.pages))
		x.pages = append(x.pages, [PageLines]V{})
	}
	x.lastKey, x.last = key, &x.pages[*p]
}

// Reset forgets every line, keeping allocated storage for reuse.
func (x *Lines[V]) Reset() {
	x.index.Reset()
	x.pages = x.pages[:0]
	x.lastKey, x.last = ^uint64(0), nil
}

// Cap returns the number of pages and of index slots x holds storage for.
func (x *Lines[V]) Cap() (pages, indexSlots int) {
	return cap(x.pages), x.index.Cap()
}
