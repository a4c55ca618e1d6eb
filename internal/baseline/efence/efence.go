// Package efence reimplements the Electric Fence / PageHeap debugging
// allocator the paper contrasts against in §5.3: every allocation gets its
// own virtual *and physical* page(s); free protects the pages and never
// reuses them.
//
// The two failure modes the paper calls out fall straight out of this
// design:
//
//   - "even small allocations use up a page of actual physical memory",
//     giving a several-fold increase in memory consumption (enscript runs
//     out of physical memory under Electric Fence); and
//   - one object per physical page destroys spatial locality in physically
//     indexed caches.
//
// Detection power equals the shadow-page scheme's — this baseline exists to
// show the *cost* difference, not a detection difference.
package efence

import (
	"fmt"

	"repro/internal/minic/interp"
	"repro/internal/minic/ir"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

// object records one allocation for diagnostics.
type object struct {
	addr  vm.Addr
	size  uint64
	pages uint64
	freed bool
	alloc string
	free  string
}

// ViolationError reports a detected use of freed memory.
type ViolationError struct {
	Addr      vm.Addr
	UseSite   string
	AllocSite string
	FreeSite  string
	Double    bool
}

// Error implements error.
func (e *ViolationError) Error() string {
	kind := "use after free"
	if e.Double {
		kind = "double free"
	}
	return fmt.Sprintf("efence: %s at %s (allocated %s, freed %s)",
		kind, e.UseSite, e.AllocSite, e.FreeSite)
}

// Runtime is the Electric Fence allocator.
type Runtime struct {
	proc *kernel.Process
	// objects maps each object's pages to its record.
	objects vm.RangeMap[*object]
	live    map[vm.Addr]*object
}

var _ interp.Runtime = (*Runtime)(nil)

// New returns an Electric Fence runtime on proc.
func New(proc *kernel.Process) *Runtime {
	return &Runtime{
		proc: proc,
		live: make(map[vm.Addr]*object),
	}
}

// Malloc implements interp.Runtime: one fresh page run per object.
func (r *Runtime) Malloc(size uint64, site string) (vm.Addr, error) {
	if size == 0 {
		size = 1
	}
	pages := (size + vm.PageSize - 1) / vm.PageSize
	addr, err := r.proc.Mmap(pages * vm.PageSize)
	if err != nil {
		return 0, fmt.Errorf("efence: %s: %w", site, err)
	}
	obj := &object{addr: addr, size: size, pages: pages, alloc: site}
	if err := r.objects.Set(vm.PageOf(addr), pages, obj); err != nil {
		return 0, fmt.Errorf("efence: %s: %w", site, err)
	}
	r.live[addr] = obj
	return addr, nil
}

// Free implements interp.Runtime: protect the pages forever. free(NULL) is
// a no-op, as in C.
func (r *Runtime) Free(addr vm.Addr, site string) error {
	if addr == 0 {
		return nil
	}
	obj, ok := r.live[addr]
	if !ok {
		if old := r.objects.Get(vm.PageOf(addr)); old != nil && old.freed {
			return &ViolationError{
				Addr: addr, UseSite: site,
				AllocSite: old.alloc, FreeSite: old.free, Double: true,
			}
		}
		return fmt.Errorf("efence: invalid free of %#x at %s", addr, site)
	}
	if err := r.proc.Mprotect(vm.PageBase(addr), obj.pages, vm.ProtNone); err != nil {
		return err
	}
	obj.freed = true
	obj.free = site
	delete(r.live, addr)
	return nil
}

// PoolInit implements interp.Runtime. Electric Fence is a binary-level tool;
// pool operations degrade to the page-per-object scheme (PoolDestroy cannot
// reuse anything).
func (r *Runtime) PoolInit(decl ir.PoolDecl) (uint64, error) { return 1, nil }

// PoolDestroy implements interp.Runtime (no reuse possible).
func (r *Runtime) PoolDestroy(handle uint64) error { return nil }

// PoolAlloc implements interp.Runtime.
func (r *Runtime) PoolAlloc(handle uint64, size uint64, site string) (vm.Addr, error) {
	return r.Malloc(size, site)
}

// PoolFree implements interp.Runtime.
func (r *Runtime) PoolFree(handle uint64, addr vm.Addr, site string) error {
	return r.Free(addr, site)
}

// Explain implements interp.Runtime.
func (r *Runtime) Explain(fault *vm.Fault, site string) error {
	r.proc.Meter().ChargeTrap()
	obj := r.objects.Get(vm.PageOf(fault.Addr))
	if obj == nil || !obj.freed {
		return fault
	}
	return &ViolationError{
		Addr: fault.Addr, UseSite: site,
		AllocSite: obj.alloc, FreeSite: obj.free,
	}
}

// CheckAccess implements interp.Runtime: hardware checking, no software
// cost.
func (r *Runtime) CheckAccess(addr vm.Addr, size int, write bool, site string) (vm.Addr, error) {
	return addr, nil
}
