// Package runtimes provides the interp.Runtime implementations for the
// paper's build configurations:
//
//   - Native / LLVM base: the plain system allocator, no checks.
//   - PA: Automatic Pool Allocation runtime, no dangling detection.
//   - PA + dummy syscalls: PA plus one no-op syscall per allocation and
//     deallocation, the paper's instrument for separating syscall cost from
//     TLB cost (Table 1's "PA + dummy syscalls" column).
//   - Shadow ("our approach"): PA plus the shadow-page remapper.
//   - ShadowNoPA: the remapper over the plain heap — the §1.1 "directly on
//     binaries" interposition mode, with no virtual-address reuse.
//
// The Valgrind/EFence/capability baselines live in internal/baseline.
package runtimes

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/minic/interp"
	"repro/internal/minic/ir"
	"repro/internal/pool"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

// Native is the unchecked configuration: malloc/free on the system heap.
// PoolInit/PoolAlloc also work (backed by the pool runtime) so that
// PA-transformed code can run without detection — that is exactly the
// paper's "PA" configuration.
type Native struct {
	heap    *heap.Heap
	pools   *pool.Runtime
	handles map[uint64]*pool.Pool
	nextID  uint64
	// dummySyscalls turns on the PA+dummy-syscalls instrumentation.
	dummySyscalls bool
	proc          *kernel.Process
}

var _ interp.Runtime = (*Native)(nil)

// NewNative returns the unchecked runtime.
func NewNative(proc *kernel.Process) *Native {
	return &Native{
		heap:    heap.New(proc),
		pools:   pool.NewRuntime(proc),
		handles: make(map[uint64]*pool.Pool),
		proc:    proc,
	}
}

// NewPADummy returns the PA + dummy syscalls runtime.
func NewPADummy(proc *kernel.Process) *Native {
	rt := NewNative(proc)
	rt.dummySyscalls = true
	return rt
}

// Heap exposes the underlying allocator for stats.
func (n *Native) Heap() *heap.Heap { return n.heap }

// Pools exposes the pool runtime for stats.
func (n *Native) Pools() *pool.Runtime { return n.pools }

// Malloc implements interp.Runtime.
func (n *Native) Malloc(size uint64, site string) (vm.Addr, error) {
	if n.dummySyscalls {
		n.proc.DummySyscall()
	}
	return n.heap.Malloc(size)
}

// Free implements interp.Runtime. free(NULL) is a no-op, as in C.
func (n *Native) Free(addr vm.Addr, site string) error {
	if addr == 0 {
		return nil
	}
	if n.dummySyscalls {
		n.proc.DummySyscall()
	}
	return n.heap.Free(addr)
}

// PoolInit implements interp.Runtime.
func (n *Native) PoolInit(decl ir.PoolDecl) (uint64, error) {
	p := n.pools.Init(decl.Name, decl.ElemSize)
	n.nextID++
	n.handles[n.nextID] = p
	return n.nextID, nil
}

func (n *Native) poolOf(handle uint64) (*pool.Pool, error) {
	p, ok := n.handles[handle]
	if !ok {
		return nil, fmt.Errorf("runtimes: bad pool handle %d", handle)
	}
	return p, nil
}

// PoolDestroy implements interp.Runtime.
func (n *Native) PoolDestroy(handle uint64) error {
	p, err := n.poolOf(handle)
	if err != nil {
		return err
	}
	delete(n.handles, handle)
	return p.Destroy()
}

// PoolAlloc implements interp.Runtime.
func (n *Native) PoolAlloc(handle uint64, size uint64, site string) (vm.Addr, error) {
	p, err := n.poolOf(handle)
	if err != nil {
		return 0, err
	}
	if n.dummySyscalls {
		n.proc.DummySyscall() // the dummy mremap of the paper's column 5
	}
	return p.Alloc(size)
}

// PoolFree implements interp.Runtime. free(NULL) is a no-op, as in C.
func (n *Native) PoolFree(handle uint64, addr vm.Addr, site string) error {
	if addr == 0 {
		return nil
	}
	p, err := n.poolOf(handle)
	if err != nil {
		return err
	}
	if n.dummySyscalls {
		n.proc.DummySyscall() // the dummy mprotect
	}
	return p.Free(addr)
}

// Explain implements interp.Runtime: no detection, faults pass through.
func (n *Native) Explain(fault *vm.Fault, site string) error { return fault }

// CheckAccess implements interp.Runtime: no software checks.
func (n *Native) CheckAccess(addr vm.Addr, size int, write bool, site string) (vm.Addr, error) {
	return addr, nil
}

// AccessCheckIsPassthrough implements interp.PassthroughChecker: CheckAccess
// above is the identity, so the interpreter may skip the call.
func (n *Native) AccessCheckIsPassthrough() {}

// Shadow is "our approach": the shadow-page remapper over pools (and over
// the plain heap for any untransformed malloc/free).
type Shadow struct {
	heap    *heap.Heap
	pools   *pool.Runtime
	remap   *core.Remapper
	handles map[uint64]*pool.Pool
	nextID  uint64
}

var (
	_ interp.Runtime        = (*Shadow)(nil)
	_ interp.ElisionRuntime = (*Shadow)(nil)
)

// NewShadow returns the full detection runtime configured by cfg: its reuse
// policy, overflow guards, and sampled tier (GWP-ASan mode, where only a
// seeded, deterministic 1-in-N subset of allocation sites pays the mremap
// alias and the free-time mprotect).
func NewShadow(proc *kernel.Process, cfg core.Config) *Shadow {
	return &Shadow{
		heap:    heap.New(proc),
		pools:   pool.NewRuntime(proc),
		remap:   core.New(proc, cfg),
		handles: make(map[uint64]*pool.Pool),
	}
}

// Remapper exposes the detection engine for stats and GC control.
func (s *Shadow) Remapper() *core.Remapper { return s.remap }

// Pools exposes the pool runtime for stats.
func (s *Shadow) Pools() *pool.Runtime { return s.pools }

// Heap exposes the direct-mode allocator for stats.
func (s *Shadow) Heap() *heap.Heap { return s.heap }

// Malloc implements interp.Runtime (interposition mode).
func (s *Shadow) Malloc(size uint64, site string) (vm.Addr, error) {
	return s.remap.Alloc(core.HeapAllocator{H: s.heap}, nil, size, site)
}

// Free implements interp.Runtime (interposition mode). free(NULL) is a
// no-op, as in C.
func (s *Shadow) Free(addr vm.Addr, site string) error {
	if addr == 0 {
		return nil
	}
	return s.remap.Free(core.HeapAllocator{H: s.heap}, addr, site)
}

// PoolInit implements interp.Runtime.
func (s *Shadow) PoolInit(decl ir.PoolDecl) (uint64, error) {
	p := s.pools.Init(decl.Name, decl.ElemSize)
	s.nextID++
	s.handles[s.nextID] = p
	return s.nextID, nil
}

func (s *Shadow) poolOf(handle uint64) (*pool.Pool, error) {
	p, ok := s.handles[handle]
	if !ok {
		return nil, fmt.Errorf("runtimes: bad pool handle %d", handle)
	}
	return p, nil
}

// PoolDestroy implements interp.Runtime: retire remapper records, then
// release all canonical and shadow pages to the shared free list. Kernel
// charges during the teardown are attributed to a per-pool pseudo-site.
func (s *Shadow) PoolDestroy(handle uint64) error {
	p, err := s.poolOf(handle)
	if err != nil {
		return err
	}
	delete(s.handles, handle)
	proc := s.remap.Proc()
	defer proc.SetSite(proc.SetSite("pooldestroy:" + p.Name()))
	s.remap.OnPoolDestroy(p)
	return p.Destroy()
}

// PoolAlloc implements interp.Runtime: pool allocation behind the remapper.
func (s *Shadow) PoolAlloc(handle uint64, size uint64, site string) (vm.Addr, error) {
	p, err := s.poolOf(handle)
	if err != nil {
		return 0, err
	}
	return s.remap.Alloc(p, p, size, site)
}

// MallocElided implements interp.ElisionRuntime: a statically proven
// allocation skips shadow pages and the remap header entirely.
func (s *Shadow) MallocElided(size uint64, site string) (vm.Addr, error) {
	return s.remap.AllocElided(core.HeapAllocator{H: s.heap}, nil, size, site)
}

// PoolAllocElided implements interp.ElisionRuntime: a proven pool allocation
// comes straight from the pool at its canonical address — no mremap alias,
// no free-time mprotect.
func (s *Shadow) PoolAllocElided(handle uint64, size uint64, site string) (vm.Addr, error) {
	p, err := s.poolOf(handle)
	if err != nil {
		return 0, err
	}
	return s.remap.AllocElided(p, p, size, site)
}

// PoolFree implements interp.Runtime. free(NULL) is a no-op, as in C.
func (s *Shadow) PoolFree(handle uint64, addr vm.Addr, site string) error {
	if addr == 0 {
		return nil
	}
	p, err := s.poolOf(handle)
	if err != nil {
		return err
	}
	return s.remap.Free(p, addr, site)
}

// Explain implements interp.Runtime: faults in freed shadow pages become
// DanglingErrors.
func (s *Shadow) Explain(fault *vm.Fault, site string) error {
	return s.remap.Explain(fault, site)
}

// CheckAccess implements interp.Runtime: the MMU does the checking — "we do
// not perform any checks on individual memory accesses themselves" (§1.1).
func (s *Shadow) CheckAccess(addr vm.Addr, size int, write bool, site string) (vm.Addr, error) {
	return addr, nil
}

// AccessCheckIsPassthrough implements interp.PassthroughChecker: CheckAccess
// above is the identity, so the interpreter may skip the call.
func (s *Shadow) AccessCheckIsPassthrough() {}
