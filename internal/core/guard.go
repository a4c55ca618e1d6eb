package core

import (
	"fmt"

	"repro/internal/sim/vm"
)

// Overflow guard pages are an extension in the spirit of PageHeap and
// Electric Fence (§5.3): with guards enabled, the remapper reserves one
// never-mapped virtual page immediately after each object's shadow block.
// A sequential overflow that runs off the object's last page lands on the
// guard and faults, which Explain reports as an *OverflowError.
//
// Overflows that stay within the object's last page (into the padding, or
// into a neighbour's bytes on the canonical page) remain undetectable at
// page granularity — the same limitation the page-based tools have. Guard
// pages consume virtual address space only (they are never mapped), one
// page per live allocation; the reservation is not recycled by pool
// destruction, so the mode suits debugging rather than production, exactly
// like the tools it imitates.

// OverflowError reports a detected sequential buffer overflow: an access
// that ran off the end of a live object into its guard page.
type OverflowError struct {
	// Fault is the hardware fault on the guard page.
	Fault *vm.Fault
	// Object is the live allocation that was overrun.
	Object *Object
	// UseSite labels the faulting operation.
	UseSite string
	// Offset is the byte offset of the access relative to the start of
	// the object (always >= the object's size).
	Offset int64
}

// Error implements error.
func (e *OverflowError) Error() string {
	return fmt.Sprintf(
		"buffer overflow at %s: object of %d bytes allocated at %s (seq %d); access at offset %+d runs past the object",
		e.UseSite, e.Object.UserSize, e.Object.AllocSite, e.Object.AllocSeq, e.Offset)
}

// reserveGuard reserves the page right after a freshly reserved shadow
// block. The address-space bump allocator hands out consecutive pages, so
// the reservation is adjacent by construction.
func (r *Remapper) reserveGuard(shadowBase vm.Addr, span uint64) error {
	vpn, err := r.proc.Space().ReservePages(1)
	if err != nil {
		return err
	}
	want := vm.PageOf(shadowBase) + vm.VPN(span)
	if vpn != want {
		return fmt.Errorf("core: guard page not adjacent (%#x after %#x+%d)",
			uint64(vpn)<<vm.PageShift, shadowBase, span)
	}
	return nil
}

// explainGuard checks whether an unmapped-page fault is a guard-page hit:
// the preceding page must belong to a live object whose shadow run ends
// exactly there.
func (r *Remapper) explainGuard(fault *vm.Fault, site string) error {
	if fault.Reason != vm.FaultUnmapped {
		return nil
	}
	vpn := vm.PageOf(fault.Addr)
	if vpn == 0 {
		return nil
	}
	obj := r.lookup(vpn - 1)
	if obj == nil || obj.State != StateLive || !obj.Guarded {
		return nil
	}
	if vm.PageOf(obj.ShadowRun.Addr)+vm.VPN(obj.ShadowRun.Pages) != vpn {
		return nil
	}
	return &OverflowError{
		Fault:   fault,
		Object:  obj,
		UseSite: site,
		Offset:  int64(fault.Addr) - int64(obj.ShadowAddr),
	}
}
