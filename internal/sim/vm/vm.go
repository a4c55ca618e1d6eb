// Package vm simulates a per-process virtual address space: a page table
// mapping virtual page numbers to physical frames with per-page protection
// bits, plus a bump allocator for fresh virtual page ranges.
//
// Two properties the paper depends on are implemented exactly:
//
//   - Aliasing: any number of virtual pages may map to the same physical
//     frame, each with its own protection bits. This is what lets the shadow
//     page of a freed object be PROT_NONE while the canonical page (and
//     therefore the physical memory) stays in use (Insight 1).
//   - A 47-bit user address space, matching the paper's §3.4 exhaustion
//     calculation (2^47 bytes / (2^12 bytes/µs) ≈ 9.5 hours).
package vm

import (
	"fmt"
	"sync"

	"repro/internal/sim/phys"
)

// Prot is a page protection bit set.
type Prot uint8

// Protection bits. ProtNone (no bits) makes any access fault, which is how
// freed objects' shadow pages are poisoned.
const (
	ProtNone Prot = 0
	ProtRead Prot = 1 << iota
	ProtWrite
)

// ProtRW is the common read+write protection for freshly mapped pages.
const ProtRW = ProtRead | ProtWrite

// String renders the protection like "rw", "r-", or "--".
func (p Prot) String() string {
	b := []byte{'-', '-'}
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	return string(b)
}

// Addr is a simulated virtual address.
type Addr = uint64

// Page geometry, re-exported from phys for convenience.
const (
	PageSize  = phys.PageSize
	PageShift = phys.PageShift
)

// UserAddrBits is the width of the simulated user virtual address space.
// The paper assumes a maximum of 2^47 bytes for a user program on 64-bit
// Linux.
const UserAddrBits = 47

// UserAddrLimit is the first address beyond the user address space.
const UserAddrLimit Addr = 1 << UserAddrBits

// VPN is a virtual page number (Addr >> PageShift).
type VPN uint64

// PageOf returns the VPN containing addr.
func PageOf(addr Addr) VPN { return VPN(addr >> PageShift) }

// PageBase returns the first address of the page containing addr.
func PageBase(addr Addr) Addr { return addr &^ (PageSize - 1) }

// Offset returns the offset of addr within its page.
func Offset(addr Addr) uint64 { return addr & (PageSize - 1) }

// PageSpan returns the number of pages covered by [addr, addr+size).
func PageSpan(addr Addr, size uint64) uint64 {
	if size == 0 {
		return 0
	}
	first := uint64(PageOf(addr))
	last := uint64(PageOf(addr + size - 1))
	return last - first + 1
}

// AccessKind distinguishes the operation that caused a fault.
type AccessKind uint8

// Access kinds.
const (
	AccessRead AccessKind = iota + 1
	AccessWrite
)

// String implements fmt.Stringer.
func (k AccessKind) String() string {
	switch k {
	case AccessRead:
		return "read"
	case AccessWrite:
		return "write"
	default:
		return fmt.Sprintf("access(%d)", uint8(k))
	}
}

// FaultReason classifies a fault.
type FaultReason uint8

// Fault reasons. FaultProtection is the MMU check the whole detection scheme
// rides on: the page is mapped but its protection bits forbid the access.
const (
	FaultUnmapped FaultReason = iota + 1
	FaultProtection
)

// String implements fmt.Stringer.
func (r FaultReason) String() string {
	switch r {
	case FaultUnmapped:
		return "unmapped"
	case FaultProtection:
		return "protection"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// Fault is a simulated hardware memory fault (the SIGSEGV equivalent).
type Fault struct {
	Addr   Addr
	Access AccessKind
	Reason FaultReason
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("fault: %s of %#x (%s)", f.Access, f.Addr, f.Reason)
}

// pte is one page-table entry packed into a word: frame<<8 | prot<<1 |
// present. present distinguishes a live entry from an absent one: ProtNone is
// a valid protection for a *mapped* page (that is how freed shadow pages are
// poisoned), and frame 0 is a valid frame, so without it a mapped entry could
// equal the zero value the radix reads as absent. Packing halves a
// page-table leaf to 32 KB.
type pte uint64

const ptePresent pte = 1

// makePTE packs a present entry. Prot has two defined bits, so seven bits
// hold any Prot the package defines.
func makePTE(frame phys.FrameID, prot Prot) pte {
	return pte(frame)<<8 | pte(prot&0x7f)<<1 | ptePresent
}

func (e pte) frame() phys.FrameID { return phys.FrameID(e >> 8) }
func (e pte) prot() Prot          { return Prot(e>>1) & 0x7f }

// Radix geometry. A VPN has UserAddrBits-PageShift = 35 significant bits,
// split across three levels (11 + 12 + 12) exactly like a hardware page-table
// walk: top-level directory of 2048 entries, mid-level directories of 4096,
// and leaves of 4096 slots. The bump allocator hands out VPNs densely from
// the bottom of the space, so leaves fill up before new ones are needed and
// the tree stays shallow and compact.
const (
	radixLeafBits = 12
	radixMidBits  = 12
	radixTopBits  = UserAddrBits - PageShift - radixLeafBits - radixMidBits

	radixLeafSize = 1 << radixLeafBits
	radixMidSize  = 1 << radixMidBits
	radixTopSize  = 1 << radixTopBits

	radixLeafMask = radixLeafSize - 1
	radixMidMask  = radixMidSize - 1
)

// spaceToken identifies the owner of a radix node. A node reached through a
// tree whose token differs from the node's owner is shared with a frozen
// snapshot parent and must be path-copied before mutation (persistent-tree
// copy-on-write, the same aliasing idea the shadow pages use, applied to the
// page table itself). Trees that are never forked use the nil token.
type spaceToken struct{ _ byte }

// PageMap maps virtual page numbers to values of T. It is the package's one
// page-indexed structure: a three-level radix tree (see the geometry
// constants above) whose zero T means absent, so Set with the zero value
// deletes. A lookup is three array indexings instead of a map hash, which is
// what keeps the simulated load/store fast path free of hashing. Space keeps
// its page-table entries in one (with copy-on-write node ownership for
// forks); the layers above the MMU key their per-page records by it. The
// zero PageMap is empty and ready to use; a copy shares the original's nodes,
// so do not copy one in use. Not safe for concurrent use.
type PageMap[T comparable] struct {
	// root is nil until the first Set: an empty map costs no directory.
	root *radixRoot[T]
	// pool, when set by UsePool, supplies new nodes and takes them back
	// on Release.
	pool *NodePool[T]
}

type radixRoot[T comparable] struct {
	owner *spaceToken
	mids  [radixTopSize]*radixMid[T]
}

type radixMid[T comparable] struct {
	owner  *spaceToken
	leaves [radixMidSize]*radixLeaf[T]
}

type radixLeaf[T comparable] struct {
	owner *spaceToken
	slots [radixLeafSize]T
}

// NodePool recycles the radix nodes of released PageMaps of one element
// type, so a short-lived map (one replay's page table or object index) takes
// its 16 KB root and 32 KB nodes from the last one instead of allocating
// them. A node is cleared when it is taken, not when it is returned. The
// zero NodePool is ready to use and safe for concurrent use.
type NodePool[T comparable] struct {
	roots, mids, leaves sync.Pool
}

// pteNodes is the node pool every Space's page table uses.
var pteNodes NodePool[pte]

// newRoot returns a root owned by owner holding src's children, or none
// when src is nil, taken from m's pool when it has one.
func (m *PageMap[T]) newRoot(owner *spaceToken, src *radixRoot[T]) *radixRoot[T] {
	var n *radixRoot[T]
	reused := false
	if m.pool != nil {
		n, reused = m.pool.roots.Get().(*radixRoot[T])
	}
	switch {
	case src != nil:
		if !reused {
			n = new(radixRoot[T])
		}
		n.mids = src.mids
	case reused:
		clear(n.mids[:])
	default:
		n = new(radixRoot[T])
	}
	n.owner = owner
	return n
}

// newMid returns a mid node owned by owner holding src's children, or none
// when src is nil, taken from m's pool when it has one.
func (m *PageMap[T]) newMid(owner *spaceToken, src *radixMid[T]) *radixMid[T] {
	var n *radixMid[T]
	reused := false
	if m.pool != nil {
		n, reused = m.pool.mids.Get().(*radixMid[T])
	}
	switch {
	case src != nil:
		if !reused {
			n = new(radixMid[T])
		}
		n.leaves = src.leaves
	case reused:
		clear(n.leaves[:])
	default:
		n = new(radixMid[T])
	}
	n.owner = owner
	return n
}

// newLeaf is newMid for leaves.
func (m *PageMap[T]) newLeaf(owner *spaceToken, src *radixLeaf[T]) *radixLeaf[T] {
	var n *radixLeaf[T]
	reused := false
	if m.pool != nil {
		n, reused = m.pool.leaves.Get().(*radixLeaf[T])
	}
	switch {
	case src != nil:
		if !reused {
			n = new(radixLeaf[T])
		}
		n.slots = src.slots
	case reused:
		clear(n.slots[:])
	default:
		n = new(radixLeaf[T])
	}
	n.owner = owner
	return n
}

// UsePool makes m take new nodes from p and give them back to it on
// Release. Call it before the first Set.
func (m *PageMap[T]) UsePool(p *NodePool[T]) { m.pool = p }

// get returns a pointer to the present slot for vpn, or nil when the slot is
// absent (or its path is not populated). The slot must not be written: it
// may be shared with a snapshot parent.
func (m *PageMap[T]) get(vpn VPN) *T {
	top := vpn >> (radixMidBits + radixLeafBits)
	if top >= radixTopSize {
		return nil // beyond the 47-bit user space: never present
	}
	if m.root == nil {
		return nil
	}
	mid := m.root.mids[top]
	if mid == nil {
		return nil
	}
	leaf := mid.leaves[(vpn>>radixLeafBits)&radixMidMask]
	if leaf == nil {
		return nil
	}
	e := &leaf.slots[vpn&radixLeafMask]
	var zero T
	if *e == zero {
		return nil
	}
	return e
}

// ensure returns a writable pointer to the (possibly absent) slot for vpn,
// allocating nodes along the path as needed and path-copying any node not
// owned by owner. vpn must lie inside the 47-bit user space.
func (m *PageMap[T]) ensure(vpn VPN, owner *spaceToken) *T {
	top := vpn >> (radixMidBits + radixLeafBits)
	if top >= radixTopSize {
		panic(fmt.Sprintf("vm: page %#x beyond the %d-bit user space", uint64(vpn)<<PageShift, UserAddrBits))
	}
	if m.root == nil || m.root.owner != owner {
		m.root = m.newRoot(owner, m.root)
	}
	mid := m.root.mids[top]
	if mid == nil || mid.owner != owner {
		mid = m.newMid(owner, mid)
		m.root.mids[top] = mid
	}
	li := (vpn >> radixLeafBits) & radixMidMask
	leaf := mid.leaves[li]
	if leaf == nil || leaf.owner != owner {
		leaf = m.newLeaf(owner, leaf)
		mid.leaves[li] = leaf
	}
	return &leaf.slots[vpn&radixLeafMask]
}

// release empties m, handing the nodes owner owns to m's pool (if any).
// Nodes owned by anyone else belong to a frozen snapshot parent and stay
// with it. An owned node always hangs under an owned parent: ensure copies
// the root before the mid and the mid before the leaf.
func (m *PageMap[T]) release(owner *spaceToken) {
	root := m.root
	m.root = nil
	if root == nil || root.owner != owner || m.pool == nil {
		return
	}
	for _, mid := range root.mids {
		if mid == nil || mid.owner != owner {
			continue
		}
		for _, leaf := range mid.leaves {
			if leaf != nil && leaf.owner == owner {
				m.pool.leaves.Put(leaf)
			}
		}
		m.pool.mids.Put(mid)
	}
	m.pool.roots.Put(root)
}

// Release empties m and hands its nodes to the pool UsePool set. The nodes
// must not be reached any more through a copy of m.
func (m *PageMap[T]) Release() { m.release(nil) }

// ForEach calls fn for every entry in ascending VPN order.
func (m *PageMap[T]) ForEach(fn func(VPN, T)) {
	if m.root == nil {
		return
	}
	var zero T
	for ti, mid := range m.root.mids {
		if mid == nil {
			continue
		}
		for mi, leaf := range mid.leaves {
			if leaf == nil {
				continue
			}
			base := VPN(ti)<<(radixMidBits+radixLeafBits) | VPN(mi)<<radixLeafBits
			for li := range leaf.slots {
				if v := leaf.slots[li]; v != zero {
					fn(base|VPN(li), v)
				}
			}
		}
	}
}

// Get returns the value at vpn, or the zero T when none is set.
func (m *PageMap[T]) Get(vpn VPN) T {
	if e := m.get(vpn); e != nil {
		return *e
	}
	var zero T
	return zero
}

// Set stores v at vpn; the zero v deletes the entry. vpn must lie inside the
// 47-bit user space.
func (m *PageMap[T]) Set(vpn VPN, v T) {
	var zero T
	if v == zero && m.get(vpn) == nil {
		return // deleting an absent entry allocates no nodes
	}
	*m.ensure(vpn, nil) = v
}

// Space is one process's virtual address space. It owns no physical memory;
// frames are allocated and freed by the kernel layer, which also decides
// frame lifetimes under aliasing. Not safe for concurrent use.
//
// The page table is a PageMap of pte slots. A forked Space shares its
// parent's radix nodes and path-copies each one on first write.
type Space struct {
	pt PageMap[pte]
	// self is this Space's node-ownership token: radix nodes whose owner
	// field equals self may be mutated in place; any other node is shared
	// with a snapshot parent and is copied on first write.
	self *spaceToken
	// frozen marks a snapshot parent: all mutation panics, Fork is legal.
	frozen bool
	// mapped is the live page-table entry count.
	mapped uint64
	// epoch increments on every Map/Protect/Unmap so the MMU's one-entry
	// translation cache can validate itself without a table walk.
	epoch uint64
	// next is the bump pointer for fresh virtual page allocation. Starting
	// above zero keeps address 0 (NULL) permanently unmapped.
	next VPN
	// peakMapped tracks the high-water mark of live page-table entries,
	// one of the §3.4 costs (page-table entries tied up by non-reusable
	// virtual pages).
	peakMapped uint64
	// everMapped counts distinct fresh VPNs handed out by ReservePages,
	// i.e. total virtual address space consumed.
	everMapped uint64
	// budget, when nonzero, caps everMapped below the architectural
	// 47-bit limit: ReservePages fails with ErrAddressSpaceExhausted once
	// cumulative fresh reservations would exceed it. This compresses the
	// §3.4 exhaustion cliff into simulatable runs. Pages recycled by
	// aliasing (MmapFixed/RemapFixedAlias over already-reserved VPNs) do
	// not count against the budget, matching the mitigation model: once
	// reserved, address space can be reused forever.
	budget uint64
}

// NewSpace returns an empty address space.
func NewSpace() *Space {
	s := &Space{
		self: new(spaceToken),
		next: 16, // leave the first 64 KB unmapped (NULL guard)
	}
	s.pt.UsePool(&pteNodes)
	return s
}

// Epoch returns the page-table mutation counter. Any cached translation made
// at an earlier epoch may be stale.
func (s *Space) Epoch() uint64 { return s.epoch }

// mutablePTE returns a writable pointer to the live entry for vpn, or nil
// when the page is unmapped, path-copying shared radix nodes on the way.
func (s *Space) mutablePTE(vpn VPN) *pte {
	if s.pt.get(vpn) == nil {
		return nil
	}
	return s.pt.ensure(vpn, s.self)
}

// ErrAddressSpaceExhausted is reported when ReservePages passes the 47-bit
// limit — the failure mode the paper's Insight 2 exists to avoid.
var ErrAddressSpaceExhausted = fmt.Errorf("vm: virtual address space exhausted (2^%d bytes)", UserAddrBits)

// ReservePages hands out n fresh, never-before-used consecutive virtual
// pages and returns the first VPN. The pages are not mapped yet.
func (s *Space) ReservePages(n uint64) (VPN, error) {
	if s.frozen {
		panic("vm: ReservePages on a frozen snapshot")
	}
	if n == 0 {
		return 0, fmt.Errorf("vm: reserve of zero pages")
	}
	// Both checks subtract from the limit instead of adding n to the
	// counter, so no n wraps past them. next never exceeds the limit; a
	// budget already below everMapped refuses every reservation.
	if n > UserAddrLimit>>PageShift-uint64(s.next) {
		return 0, ErrAddressSpaceExhausted
	}
	if s.budget != 0 && (s.everMapped > s.budget || n > s.budget-s.everMapped) {
		return 0, ErrAddressSpaceExhausted
	}
	v := s.next
	s.next += VPN(n)
	s.everMapped += n
	return v, nil
}

// Map installs a mapping from vpn to frame with protection prot, replacing
// any existing entry. vpn must lie inside the 47-bit user space (ReservePages
// never hands out anything else).
func (s *Space) Map(vpn VPN, frame phys.FrameID, prot Prot) {
	if s.frozen {
		panic("vm: Map on a frozen snapshot")
	}
	s.epoch++
	e := s.pt.ensure(vpn, s.self)
	if *e&ptePresent == 0 {
		s.mapped++
		if s.mapped > s.peakMapped {
			s.peakMapped = s.mapped
		}
	}
	*e = makePTE(frame, prot)
}

// Unmap removes the mapping for vpn. Unmapping an unmapped page is an error
// (the kernel layer never does it).
func (s *Space) Unmap(vpn VPN) error {
	if s.frozen {
		panic("vm: Unmap on a frozen snapshot")
	}
	s.epoch++
	e := s.mutablePTE(vpn)
	if e == nil {
		return fmt.Errorf("vm: unmap of unmapped page %#x", uint64(vpn)<<PageShift)
	}
	*e = 0
	s.mapped--
	return nil
}

// Protect sets the protection bits of vpn.
func (s *Space) Protect(vpn VPN, prot Prot) error {
	if s.frozen {
		panic("vm: Protect on a frozen snapshot")
	}
	s.epoch++
	e := s.mutablePTE(vpn)
	if e == nil {
		return fmt.Errorf("vm: protect of unmapped page %#x", uint64(vpn)<<PageShift)
	}
	*e = makePTE(e.frame(), prot)
	return nil
}

// Lookup returns the frame and protection of vpn.
func (s *Space) Lookup(vpn VPN) (phys.FrameID, Prot, bool) {
	e := s.pt.get(vpn)
	if e == nil {
		return 0, 0, false
	}
	return e.frame(), e.prot(), true
}

// Translate checks an access of the given kind to addr and returns the frame
// backing it. On failure it returns a *Fault.
func (s *Space) Translate(addr Addr, kind AccessKind) (phys.FrameID, *Fault) {
	e := s.pt.get(PageOf(addr))
	if e == nil {
		return 0, &Fault{Addr: addr, Access: kind, Reason: FaultUnmapped}
	}
	need := ProtRead
	if kind == AccessWrite {
		need = ProtWrite
	}
	if e.prot()&need == 0 {
		return 0, &Fault{Addr: addr, Access: kind, Reason: FaultProtection}
	}
	return e.frame(), nil
}

// ForEach calls fn for every live page-table entry, in ascending VPN order.
func (s *Space) ForEach(fn func(VPN, phys.FrameID, Prot)) {
	s.pt.ForEach(func(vpn VPN, e pte) { fn(vpn, e.frame(), e.prot()) })
}

// MappedPages returns the number of live page-table entries.
func (s *Space) MappedPages() uint64 { return s.mapped }

// PeakMappedPages returns the high-water mark of live page-table entries.
func (s *Space) PeakMappedPages() uint64 { return s.peakMapped }

// ReservedPages returns the total number of fresh virtual pages ever handed
// out — the paper's "virtual address space usage".
func (s *Space) ReservedPages() uint64 { return s.everMapped }

// NextFreshPage returns the VPN the next ReservePages call would hand out.
// Exposed for the exhaustion study.
func (s *Space) NextFreshPage() VPN { return s.next }

// SetBudget caps the total number of fresh virtual pages ReservePages may
// ever hand out. Zero removes the cap (the architectural 47-bit limit still
// applies). Reservations already made are never revoked; a budget below
// ReservedPages() simply makes every further fresh reservation fail.
func (s *Space) SetBudget(pages uint64) { s.budget = pages }

// BudgetPages returns the configured fresh-reservation cap, or 0 when only
// the architectural limit applies.
func (s *Space) BudgetPages() uint64 { return s.budget }

// Freeze marks the Space as an immutable snapshot parent. All further
// mutation panics; Fork becomes legal. Freeze is idempotent and must be
// called before the Space is shared across goroutines.
func (s *Space) Freeze() { s.frozen = true }

// Fork returns a mutable copy-on-write clone of a frozen Space. The clone
// shares every radix node with the parent; a node is path-copied the first
// time the clone mutates a page inside it, so an N-fork fleet pays for page
// tables proportional to what it changes, not to what it inherited. Fork is
// safe to call from many goroutines at once because it only reads the frozen
// parent.
func (s *Space) Fork() *Space {
	if !s.frozen {
		panic("vm: Fork of an unfrozen Space")
	}
	return &Space{
		pt:         s.pt, // shallow: nodes stay owned by the parent's token
		self:       new(spaceToken),
		mapped:     s.mapped,
		epoch:      s.epoch,
		next:       s.next,
		peakMapped: s.peakMapped,
		everMapped: s.everMapped,
		budget:     s.budget,
	}
}

// Release hands the radix nodes this Space owns to the page-table node
// pool, leaving nodes shared with a frozen parent to the parent, and leaves
// the Space unusable: a later lookup finds nothing mapped and a later
// mutation panics. A fork's owner calls it once the fork's last reader is
// done. A frozen snapshot is never released.
func (s *Space) Release() {
	if s.frozen {
		panic("vm: Release of a frozen snapshot")
	}
	s.pt.release(s.self)
	s.frozen = true
}
