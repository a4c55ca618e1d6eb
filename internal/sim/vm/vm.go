// Package vm simulates a per-process virtual address space: mappings from
// virtual pages to physical frames with protection bits, plus a bump
// allocator for fresh virtual page ranges.
//
// Mappings are kept as ranges, the way an operating system keeps VMAs: a
// RangeMap of entries each holding a protection and a frame list, so a map,
// alias, protection change or unmap over n pages is one range edit, and an
// alias shares its source's frame list. Translating a page is one RangeMap
// lookup; translations are cached only in the MMU's TLB, which the kernel
// shoots down after every edit.
//
// Two properties the paper depends on are implemented exactly:
//
//   - Aliasing: any number of virtual pages may map to the same physical
//     frame, each with its own protection bits. This is what lets the shadow
//     page of a freed object be PROT_NONE while the canonical page (and
//     therefore the physical memory) stays in use (Insight 1).
//   - A 47-bit user address space, matching the paper's §3.4 exhaustion
//     calculation (2^47 bytes / (2^12 bytes/µs) ≈ 9.5 hours).
//
// Range-map nodes come from a pool a released Space refills, so a
// short-lived address space allocates few nodes of its own.
package vm

import (
	"fmt"

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

// mapping is the value of one entry of a Space's range map: the frames of
// the pages it was made with, one per page, and the protection of all of
// them. Entries split from one mapping share its frame list.
type mapping struct {
	frames []phys.FrameID
	prot   Prot
}

// Space is one process's virtual address space. It owns no physical memory;
// frames are allocated and freed by the kernel layer, which also decides
// frame lifetimes under aliasing. Not safe for concurrent use.
//
// The mappings are ranges (maps), so a map, alias, protection change or
// unmap over n pages is one range edit, and a lookup is one search of them.
type Space struct {
	maps RangeMap[mapping]
	// released marks a Space whose nodes went back to the pool: all
	// mutation panics.
	released bool
	// next is the bump pointer for fresh virtual page allocation. Starting
	// above zero keeps address 0 (NULL) permanently unmapped.
	next VPN
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

// mapNodes is the pool every Space's range map uses.
var mapNodes RangePool[mapping]

// NewSpace returns an empty address space.
func NewSpace() *Space {
	s := &Space{
		next: 16, // leave the first 64 KB unmapped (NULL guard)
	}
	s.maps.UsePool(&mapNodes)
	return s
}

// ErrAddressSpaceExhausted is reported when ReservePages passes the 47-bit
// limit — the failure mode the paper's Insight 2 exists to avoid.
var ErrAddressSpaceExhausted = fmt.Errorf("vm: virtual address space exhausted (2^%d bytes)", UserAddrBits)

// ReservePages hands out n fresh, never-before-used consecutive virtual
// pages and returns the first VPN. The pages are not mapped yet.
func (s *Space) ReservePages(n uint64) (VPN, error) {
	if s.released {
		panic("vm: ReservePages on a released Space")
	}
	if n == 0 {
		return 0, fmt.Errorf("vm: reserve of zero pages")
	}
	// Both checks subtract from the limit instead of adding n to the
	// counter, so no n wraps past them. next never exceeds the limit; a
	// budget already below everMapped refuses every reservation.
	if n > limitPages-uint64(s.next) {
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

// edit checks a range edit's range. The edit invalidates no cached
// translation itself: the kernel shoots down the MMU's TLB entries for the
// pages it changed.
func (s *Space) edit(op string, vpn VPN, n uint64) error {
	if s.released {
		panic("vm: " + op + " on a released Space")
	}
	if err := CheckRange(vpn, n); err != nil {
		return fmt.Errorf("vm: %s: %w", op, err)
	}
	return nil
}

// Map maps len(frames) pages from vpn, page i onto frames[i], with
// protection prot, replacing any existing mappings. The Space keeps frames;
// the caller must not change it afterwards.
func (s *Space) Map(vpn VPN, frames []phys.FrameID, prot Prot) error {
	if err := s.edit("map", vpn, uint64(len(frames))); err != nil {
		return err
	}
	return s.maps.Set(vpn, uint64(len(frames)), mapping{frames: frames, prot: prot})
}

// Alias maps the n pages from dst onto the frames behind the n pages from
// src, with protection prot, replacing any existing mappings at dst: the
// mremap(old_size = 0) aliasing of the paper's §3.2. The new entries share
// the source's frame lists. The ranges must not overlap. At the first
// unmapped source page it stops with an error, after mapping the pages
// before it, and returns how many it mapped.
func (s *Space) Alias(dst, src VPN, n uint64, prot Prot) (uint64, error) {
	if err := CheckRange(src, n); err != nil {
		return 0, fmt.Errorf("vm: alias source: %w", err)
	}
	if uint64(dst-src) < n || uint64(src-dst) < n {
		return 0, fmt.Errorf("vm: alias of %#x onto overlapping %#x (%d pages)", uint64(src)<<PageShift, uint64(dst)<<PageShift, n)
	}
	if err := s.edit("alias", dst, n); err != nil {
		return 0, err
	}
	done := uint64(0)
	for done < n {
		sp, ok := s.maps.Find(src + VPN(done))
		if !ok {
			break
		}
		k := min(sp.Rest, n-done)
		if err := s.maps.Set(dst+VPN(done), k, mapping{frames: sp.Val.frames[sp.Off : sp.Off+k], prot: prot}); err != nil {
			return done, err
		}
		done += k
	}
	if done < n {
		return done, fmt.Errorf("vm: alias of unmapped page %#x", uint64(src+VPN(done))<<PageShift)
	}
	return n, nil
}

// Unmap removes every mapping in the n pages from vpn and returns how many
// pages were mapped; pages already unmapped are skipped.
func (s *Space) Unmap(vpn VPN, n uint64) (uint64, error) {
	if err := s.edit("unmap", vpn, n); err != nil {
		return 0, err
	}
	before := s.maps.Pages()
	if err := s.maps.Delete(vpn, n); err != nil {
		return 0, err
	}
	return before - s.maps.Pages(), nil
}

// Protect sets the protection of the n pages from vpn. At the first unmapped
// page it stops with an error, after changing the pages before it, and
// returns how many it changed.
func (s *Space) Protect(vpn VPN, n uint64, prot Prot) (uint64, error) {
	if err := s.edit("protect", vpn, n); err != nil {
		return 0, err
	}
	done := s.Mapped(vpn, n)
	if done > 0 {
		if err := s.maps.Update(vpn, done, func(m mapping) mapping { m.prot = prot; return m }); err != nil {
			return 0, err
		}
	}
	if done < n {
		return done, fmt.Errorf("vm: protect of unmapped page %#x", uint64(vpn+VPN(done))<<PageShift)
	}
	return n, nil
}

// Mapped returns how many of the n pages from vpn are mapped before the
// first unmapped one. An invalid range has none.
func (s *Space) Mapped(vpn VPN, n uint64) uint64 {
	if CheckRange(vpn, n) != nil {
		return 0
	}
	done := uint64(0)
	for done < n {
		sp, ok := s.maps.Find(vpn + VPN(done))
		if !ok {
			break
		}
		done += min(sp.Rest, n-done)
	}
	return done
}

// Runs calls fn for every mapped run in the n pages from vpn, in ascending
// page order, with the run's first page, its frames (one per page; the
// caller must not change them) and its protection, until fn returns false.
// fn must not edit the Space.
func (s *Space) Runs(vpn VPN, n uint64, fn func(start VPN, frames []phys.FrameID, prot Prot) bool) {
	if sp, ok := s.maps.Find(vpn); ok && n > 0 && sp.Rest >= n {
		fn(vpn, sp.Val.frames[sp.Off:sp.Off+n], sp.Val.prot) // one entry covers the range
		return
	}
	s.maps.ForEachIn(vpn, n, func(start VPN, k uint64, m mapping, off uint64) bool {
		return fn(start, m.frames[off:off+k], m.prot)
	})
}

// Lookup returns the frame and protection of vpn.
func (s *Space) Lookup(vpn VPN) (phys.FrameID, Prot, bool) {
	sp, ok := s.maps.Find(vpn)
	if !ok {
		return 0, 0, false
	}
	return sp.Val.frames[sp.Off], sp.Val.prot, true
}

// CheckAccess is the fault rule for an access of the given kind to addr,
// applied to what Lookup returned for addr's page (or what a TLB entry
// cached of it): an unmapped page faults FaultUnmapped, and a page whose
// protection does not allow the access faults FaultProtection. It returns
// nil when the access may proceed.
func CheckAccess(addr Addr, kind AccessKind, prot Prot, mapped bool) *Fault {
	if !mapped {
		return &Fault{Addr: addr, Access: kind, Reason: FaultUnmapped}
	}
	need := ProtRead
	if kind == AccessWrite {
		need = ProtWrite
	}
	if prot&need == 0 {
		return &Fault{Addr: addr, Access: kind, Reason: FaultProtection}
	}
	return nil
}

// MappedPages returns the number of mapped pages.
func (s *Space) MappedPages() uint64 { return s.maps.Pages() }

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

// Release hands the Space's range-map nodes to their pool and leaves the
// Space unusable: a later lookup finds nothing mapped and a later mutation
// panics. The machine's owner calls it once the machine's last reader is
// done.
func (s *Space) Release() {
	s.maps.Release()
	s.released = true
}
