package vm

import (
	"fmt"
	"sync"
)

// limitPages is the number of pages in the user address space: every range a
// RangeMap or a Space holds lies below it.
const limitPages = uint64(UserAddrLimit >> PageShift)

// CheckRange reports whether the n-page range starting at vpn is non-empty
// and lies inside the user address space. It compares n with the pages left
// above vpn instead of computing vpn+n, so no n wraps past it; once it
// returns nil, vpn+n is safe to compute.
func CheckRange(vpn VPN, n uint64) error {
	if n == 0 || uint64(vpn) >= limitPages || n > limitPages-uint64(vpn) {
		return fmt.Errorf("vm: range %#x/%d pages is empty or beyond the %d-bit user space", uint64(vpn)<<PageShift, n, UserAddrBits)
	}
	return nil
}

// RangeMap maps disjoint page ranges to values of T, the way an operating
// system keeps a process's mappings as VMAs: an edit over n pages changes a
// few entries of an ordered tree, never n page slots. Each entry records
// where its first page falls within its value (its offset), so splitting an
// entry — an edit over part of it — leaves both halves indexing one shared
// value, such as a mapping's frame list.
//
// The tree is a treap keyed by each entry's first page, held in one node
// array: lookup, insert and split are O(log n) and allocate nothing once
// the array has grown, and Release hands the array to a pool the next map
// takes it from. A one-entry memo makes repeated lookups inside one entry
// O(1). Adjacent entries are not merged. The zero RangeMap is empty and
// ready to use; do not copy one in use. Not safe for concurrent use.
type RangeMap[T any] struct {
	// nodes is the node array; nodes[0] is the nil sentinel, so a zero
	// index means "no node".
	nodes []rangeNode[T]
	// box carries nodes to and from the pool.
	box *rangeArena[T]
	// free heads the free-node list, threaded through right.
	free int32
	root int32
	// pages is the total page count of all entries.
	pages uint64
	// memo is the node the last Find hit (0 = none). Every edit clears it.
	memo int32
	// lo and hi bound every entry inserted since the map was made or
	// released (hi == 0: none): a page outside [lo, hi) is absent
	// without a tree search, and a range at or past hi overlaps nothing.
	lo, hi VPN
	// seed generates treap priorities. The shape of the tree never
	// shows outside the map; only its order does.
	seed uint32
	pool *RangePool[T]
}

type rangeNode[T any] struct {
	start       VPN
	pages       uint64
	off         uint64
	val         T
	left, right int32
	prio        uint32
}

type rangeArena[T any] struct{ nodes []rangeNode[T] }

// RangePool recycles the node arrays of released RangeMaps of one value
// type. The zero RangePool is ready to use and safe for concurrent use.
type RangePool[T any] struct{ p sync.Pool }

// UsePool makes m take its node array from p and give it back on Release.
// Call it before the first edit.
func (m *RangeMap[T]) UsePool(p *RangePool[T]) { m.pool = p }

// Span is the part of one entry from a looked-up page to the entry's end.
type Span[T any] struct {
	// Val is the entry's value.
	Val T
	// Off is the page's offset within Val.
	Off uint64
	// Rest is the number of pages from the page to the end of the entry.
	Rest uint64
}

// Pages returns the total page count of all entries.
func (m *RangeMap[T]) Pages() uint64 { return m.pages }

// Find returns the span of the entry holding vpn from vpn onward.
func (m *RangeMap[T]) Find(vpn VPN) (Span[T], bool) {
	if vpn < m.lo || vpn >= m.hi {
		return Span[T]{}, false
	}
	i := m.memo
	if i == 0 || vpn < m.nodes[i].start || uint64(vpn-m.nodes[i].start) >= m.nodes[i].pages {
		if i = m.floor(vpn); i == 0 || uint64(vpn-m.nodes[i].start) >= m.nodes[i].pages {
			return Span[T]{}, false
		}
		m.memo = i
	}
	n := &m.nodes[i]
	d := uint64(vpn - n.start)
	return Span[T]{Val: n.val, Off: n.off + d, Rest: n.pages - d}, true
}

// Get returns the value of the entry holding vpn, or the zero T.
func (m *RangeMap[T]) Get(vpn VPN) T {
	s, _ := m.Find(vpn)
	return s.Val
}

// Set maps the n pages from start to v, whose first page is start,
// replacing whatever the range held.
func (m *RangeMap[T]) Set(start VPN, n uint64, v T) error {
	if err := CheckRange(start, n); err != nil {
		return err
	}
	end := start + VPN(n)
	i := m.alloc(rangeNode[T]{start: start, pages: n, val: v})
	switch {
	case m.hi == 0:
		m.root, m.lo, m.hi = i, start, end
	case start >= m.hi:
		// Past every entry, as fresh address space always is: the
		// new node joins the tree's right edge.
		m.root, m.hi = m.join(m.root, i), end
	default:
		m.remove(start, end, nil)
		m.insert(i)
		m.lo, m.hi = min(m.lo, start), max(m.hi, end)
	}
	m.pages += n
	m.memo = 0
	return nil
}

// Delete removes the n pages from start from every entry, splitting the
// entries that straddle the range's ends.
func (m *RangeMap[T]) Delete(start VPN, n uint64) error {
	if err := CheckRange(start, n); err != nil {
		return err
	}
	m.remove(start, start+VPN(n), nil)
	return nil
}

// DeleteIf removes the n pages from start from the entries whose value
// satisfies drop, leaving the other entries whole.
func (m *RangeMap[T]) DeleteIf(start VPN, n uint64, drop func(T) bool) error {
	if err := CheckRange(start, n); err != nil {
		return err
	}
	m.remove(start, start+VPN(n), drop)
	return nil
}

// Update replaces the value of every entry part inside the n pages from
// start by fn of it, splitting the entries that straddle the range's ends.
// Offsets are kept, so fn may change what a value says about its pages but
// not which pages it describes.
func (m *RangeMap[T]) Update(start VPN, n uint64, fn func(T) T) error {
	if err := CheckRange(start, n); err != nil {
		return err
	}
	m.memo = 0
	if i := m.floor(start); i != 0 && m.nodes[i].start == start && m.nodes[i].pages == n {
		// The range is one whole entry, as a free's mprotect of its
		// object's shadow run is.
		m.nodes[i].val = fn(m.nodes[i].val)
		return nil
	}
	end := start + VPN(n)
	m.carve(start, nil)
	m.carve(end, nil)
	m.visit(m.root, start, end, func(n *rangeNode[T]) { n.val = fn(n.val) })
	return nil
}

// ForEach calls fn for every entry in ascending page order, with the
// entry's first page, length, value and offset, until fn returns false.
// fn must not edit m.
func (m *RangeMap[T]) ForEach(fn func(start VPN, n uint64, v T, off uint64) bool) {
	m.ForEachIn(0, limitPages, fn)
}

// ForEachIn is ForEach over the entries that overlap the n pages from
// start, each clipped to the range (its offset moves with its first page).
// An invalid range visits nothing.
func (m *RangeMap[T]) ForEachIn(start VPN, n uint64, fn func(start VPN, n uint64, v T, off uint64) bool) {
	if CheckRange(start, n) != nil {
		return
	}
	end := start + VPN(n)
	from := start
	if i := m.floor(start); i != 0 {
		from = m.nodes[i].start
	}
	more := true
	m.visit(m.root, from, end, func(e *rangeNode[T]) {
		if !more {
			return
		}
		s, p, off := e.start, e.pages, e.off
		if s < start {
			if uint64(start-s) >= p {
				return
			}
			p -= uint64(start - s)
			off += uint64(start - s)
			s = start
		}
		if p > uint64(end-s) {
			p = uint64(end - s)
		}
		more = fn(s, p, e.val, off)
	})
}

// Release empties m and hands its node array to the pool UsePool set, if
// any.
func (m *RangeMap[T]) Release() {
	clear(m.nodes) // drop the values' references before pooling
	if m.pool != nil && m.nodes != nil {
		box := m.box
		if box == nil {
			box = new(rangeArena[T])
		}
		box.nodes = m.nodes[:0]
		m.pool.p.Put(box)
	}
	pool := m.pool
	*m = RangeMap[T]{pool: pool}
}

// floor returns the node with the greatest start at or below vpn, or 0.
func (m *RangeMap[T]) floor(vpn VPN) int32 {
	best := int32(0)
	for i := m.root; i != 0; {
		if n := &m.nodes[i]; n.start <= vpn {
			best, i = i, n.right
		} else {
			i = n.left
		}
	}
	return best
}

// alloc stores n in a free node and returns its index.
func (m *RangeMap[T]) alloc(n rangeNode[T]) int32 {
	m.seed = m.seed*1664525 + 1013904223
	n.prio = m.seed
	if i := m.free; i != 0 {
		m.free = m.nodes[i].right
		m.nodes[i] = n
		return i
	}
	if m.nodes == nil {
		if m.pool != nil {
			if box, ok := m.pool.p.Get().(*rangeArena[T]); ok {
				m.box, m.nodes = box, box.nodes
			}
		}
		m.nodes = append(m.nodes, rangeNode[T]{}) // the nil sentinel
	}
	m.nodes = append(m.nodes, n)
	return int32(len(m.nodes) - 1)
}

// release puts node i on the free list.
func (m *RangeMap[T]) release(i int32) {
	m.nodes[i] = rangeNode[T]{right: m.free}
	m.free = i
}

// split divides the tree t into the nodes starting below key and the rest.
func (m *RangeMap[T]) split(t int32, key VPN) (int32, int32) {
	if t == 0 {
		return 0, 0
	}
	n := &m.nodes[t]
	if n.start < key {
		l, r := m.split(n.right, key)
		n.right = l
		return t, r
	}
	l, r := m.split(n.left, key)
	n.left = r
	return l, t
}

// join concatenates trees a and b, every start in a below every start in b.
func (m *RangeMap[T]) join(a, b int32) int32 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if m.nodes[a].prio > m.nodes[b].prio {
		m.nodes[a].right = m.join(m.nodes[a].right, b)
		return a
	}
	m.nodes[b].left = m.join(a, m.nodes[b].left)
	return b
}

// insert links the free-standing node i into the tree.
func (m *RangeMap[T]) insert(i int32) {
	l, r := m.split(m.root, m.nodes[i].start)
	m.root = m.join(m.join(l, i), r)
	m.memo = 0
}

// carve splits the entry straddling at, if any and if cut accepts its
// value (nil accepts all), so that an entry starts at at.
func (m *RangeMap[T]) carve(at VPN, cut func(T) bool) {
	i := m.floor(at)
	if i == 0 {
		return
	}
	n := m.nodes[i]
	d := uint64(at - n.start)
	if d == 0 || d >= n.pages || cut != nil && !cut(n.val) {
		return
	}
	m.nodes[i].pages = d
	m.insert(m.alloc(rangeNode[T]{start: at, pages: n.pages - d, off: n.off + d, val: n.val}))
}

// remove deletes the pages of [start, end) from the entries drop accepts
// (every entry when drop is nil).
func (m *RangeMap[T]) remove(start, end VPN, drop func(T) bool) {
	m.carve(start, drop)
	m.carve(end, drop)
	l, r := m.split(m.root, start)
	mid, r := m.split(r, end)
	m.memo = 0
	m.root = m.join(l, m.sweep(mid, drop, r))
}

// sweep frees the nodes of the tree t that drop accepts and returns the
// rest joined with the tree after, which starts above all of t.
func (m *RangeMap[T]) sweep(t int32, drop func(T) bool, after int32) int32 {
	if t == 0 {
		return after
	}
	n := &m.nodes[t]
	left, right := n.left, n.right
	after = m.sweep(right, drop, after)
	if drop == nil || drop(m.nodes[t].val) {
		m.pages -= m.nodes[t].pages
		m.release(t)
	} else {
		m.nodes[t].left, m.nodes[t].right = 0, 0
		after = m.join(t, after)
	}
	return m.sweep(left, drop, after)
}

// visit calls fn on the nodes of t starting in [lo, hi), in order.
func (m *RangeMap[T]) visit(t int32, lo, hi VPN, fn func(*rangeNode[T])) {
	for t != 0 {
		n := &m.nodes[t]
		if n.start < lo {
			t = n.right
			continue
		}
		m.visit(n.left, lo, hi, fn)
		if n.start >= hi {
			return
		}
		fn(&m.nodes[t])
		t = m.nodes[t].right
	}
}
