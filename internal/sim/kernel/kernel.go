// Package kernel provides the simulated operating-system layer: processes,
// and the four memory-management system calls the paper's scheme is built
// from — mmap, munmap, mprotect, and the undocumented-but-real
// mremap(old_size = 0) page-aliasing behaviour (§3.2, footnote 3).
//
// Every syscall charges the process meter (the paper's first overhead
// source: "we require an extra system call per allocation and deallocation")
// and performs TLB shootdowns on the pages it touches.
package kernel

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim/cost"
	"repro/internal/sim/mmu"
	"repro/internal/sim/phys"
	"repro/internal/sim/vm"
)

// System owns the machine-wide state shared by processes: physical memory.
// The fork-per-connection servers of §4.3 create one Process per connection
// against a single System.
type System struct {
	mem *phys.Memory
	// procSeq numbers processes in creation order so each gets a distinct,
	// deterministic fault-injection stream under one schedule seed.
	procSeq uint64
}

// Config configures a simulated machine and process.
type Config struct {
	// MaxFrames bounds physical memory (0 = unlimited). The Electric
	// Fence contrast experiment sets this to reproduce enscript's OOM.
	MaxFrames uint64
	// MMU is the TLB hierarchy and data-cache geometry.
	MMU mmu.Config
	// Model is the cycle price list.
	Model cost.Model
	// StackPages is the size of the process stack mapping (default 256
	// pages = 1 MB).
	StackPages uint64
	// GlobalPages is the size of the globals/data segment mapping
	// (default 64 pages).
	GlobalPages uint64
	// VABudgetPages, when nonzero, caps the total fresh virtual pages the
	// process may ever reserve — a compressed model of the paper's §3.4
	// 47-bit exhaustion cliff. The budget must cover the fixed stack and
	// globals mappings; once spent, only recycled (already-reserved)
	// address space remains usable.
	VABudgetPages uint64
	// Faults optionally injects deterministic syscall failures into the
	// fallible memory syscalls (nil = every syscall succeeds).
	Faults *Schedule
	// SiteProfile has every process attribute its charged cycles to
	// allocation sites (Process.Profile). Attribution costs no simulated
	// cycle; without it Profile is nil and the charge points skip it.
	SiteProfile bool
}

// DefaultConfig returns the reference machine.
func DefaultConfig() Config {
	return Config{
		MMU:         mmu.DefaultConfig(),
		Model:       cost.Default(),
		StackPages:  256,
		GlobalPages: 64,
	}
}

// NewSystem boots a machine.
func NewSystem(cfg Config) *System {
	return &System{mem: phys.NewMemory(cfg.MaxFrames)}
}

// PhysMemory exposes the machine's physical memory for stats.
func (s *System) PhysMemory() *phys.Memory { return s.mem }

// Process is one simulated process: an address space, an MMU, a meter, and
// the syscall interface. Not safe for concurrent use.
type Process struct {
	sys   *System
	space *vm.Space
	mmu   *mmu.MMU
	meter *cost.Meter

	// frameRefs counts, per frame (indexed by FrameID), how many of this
	// process's virtual pages map it. Aliasing (Insight 1) makes this >1; a
	// frame is returned to the machine only when its last mapping goes
	// away. Frame ids are dense from zero, so a slice beats a map here.
	frameRefs []int32
	// refsBox carries frameRefs to and from frameRefPool.
	refsBox *[]int32

	// inject is the per-process fault injector (nil = no injection).
	inject *Injector

	// Observability (metrics.go): per-kind syscall accounting, the trap
	// cycle total, the per-site attribution profile (nil unless
	// Config.SiteProfile), and the scoped site label the layers above set
	// around their operations.
	sysCounts  [numAccountedKinds]uint64
	sysCycles  [numAccountedKinds]uint64
	sysPages   [numAccountedKinds]uint64
	sysHist    [numAccountedKinds]*obs.Histogram
	trapCycles uint64
	gcCycles   uint64
	prof       *obs.SiteProfile
	site       string

	// tracer records cycle-exact spans when span tracing is enabled (nil
	// otherwise — every call site is nil-safe, so the disabled path costs
	// a single pointer check). flight is the always-on last-N event ring
	// snapshotted into trap reports; it charges no simulated cycles.
	tracer *obs.Tracer
	flight *obs.FlightRecorder

	stackBase   vm.Addr
	stackLimit  vm.Addr
	globalBase  vm.Addr
	globalLimit vm.Addr
	globalNext  vm.Addr
}

// NewProcess creates a process on sys with a fresh address space, stack, and
// globals segment.
func NewProcess(sys *System, cfg Config) (*Process, error) {
	if cfg.StackPages == 0 {
		cfg.StackPages = 256
	}
	if cfg.GlobalPages == 0 {
		cfg.GlobalPages = 64
	}
	space := vm.NewSpace()
	if cfg.VABudgetPages != 0 {
		if need := cfg.StackPages + cfg.GlobalPages; cfg.VABudgetPages < need {
			return nil, fmt.Errorf("kernel: VA budget of %d pages cannot cover the %d fixed stack+globals pages", cfg.VABudgetPages, need)
		}
		space.SetBudget(cfg.VABudgetPages)
	}
	meter := cost.NewMeter(cfg.Model)
	m := mmu.New(space, sys.mem, meter, cfg.MMU)
	p := &Process{
		sys:    sys,
		space:  space,
		mmu:    m,
		meter:  meter,
		inject: cfg.Faults.NewInjector(sys.procSeq),
		flight: obs.NewFlightRecorder(obs.DefaultFlightCap),
	}
	if cfg.SiteProfile {
		p.prof = obs.NewSiteProfile()
	}
	sys.procSeq++
	if box, ok := frameRefPool.Get().(*[]int32); ok {
		p.refsBox, p.frameRefs = box, *box
	}

	// Program setup (loader work): not charged to the meter, as the paper
	// measures steady-state execution.
	gBase, err := p.mapFresh(cfg.GlobalPages, false)
	if err != nil {
		return nil, fmt.Errorf("kernel: map globals: %w", err)
	}
	sBase, err := p.mapFresh(cfg.StackPages, false)
	if err != nil {
		return nil, fmt.Errorf("kernel: map stack: %w", err)
	}
	p.globalBase = gBase
	p.globalNext = gBase
	p.globalLimit = gBase + cfg.GlobalPages*vm.PageSize
	p.stackBase = sBase
	p.stackLimit = sBase + cfg.StackPages*vm.PageSize
	return p, nil
}

// MMU returns the process MMU, the path all program loads and stores take.
func (p *Process) MMU() *mmu.MMU { return p.mmu }

// Space returns the process address space.
func (p *Process) Space() *vm.Space { return p.space }

// Meter returns the process cycle meter.
func (p *Process) Meter() *cost.Meter { return p.meter }

// System returns the machine this process runs on.
func (p *Process) System() *System { return p.sys }

// StackBase returns the lowest stack address; StackLimit the first address
// past the stack. The interpreter grows its frame pointer upward from
// StackBase.
func (p *Process) StackBase() vm.Addr  { return p.stackBase }
func (p *Process) StackLimit() vm.Addr { return p.stackLimit }

// GlobalsRange returns the currently allocated portion of the globals
// segment [base, next): the conservative collector's data-segment roots.
func (p *Process) GlobalsRange() (vm.Addr, vm.Addr) {
	return p.globalBase, p.globalNext
}

// AllocGlobal carves size bytes (8-byte aligned) out of the globals segment.
// Loader work, not charged.
func (p *Process) AllocGlobal(size uint64) (vm.Addr, error) {
	size = (size + 7) &^ 7
	if p.globalNext+size > p.globalLimit {
		return 0, fmt.Errorf("kernel: globals segment exhausted (%d bytes requested)", size)
	}
	a := p.globalNext
	p.globalNext += size
	return a, nil
}

// ref counts one more mapping of each frame.
func (p *Process) ref(frames []phys.FrameID) {
	top := phys.FrameID(0)
	for _, f := range frames {
		top = max(top, f)
	}
	if n := int(top) + 1; len(frames) > 0 && n > len(p.frameRefs) {
		p.frameRefs = append(p.frameRefs, make([]int32, n-len(p.frameRefs))...)
	}
	for _, f := range frames {
		p.frameRefs[f]++
	}
}

// unref counts one mapping of frame fewer and returns the frame to the
// machine when that was its last.
func (p *Process) unref(frame phys.FrameID) error {
	if int(frame) < len(p.frameRefs) {
		if p.frameRefs[frame]--; p.frameRefs[frame] > 0 {
			return nil
		}
		p.frameRefs[frame] = 0
	}
	return p.sys.mem.FreeFrame(frame)
}

// unrefRange drops the frame references of every page mapped in the n pages
// from vpn, in ascending page order: frames go back to the machine's free
// list in that order, and which frame the next mapping gets decides where
// its data lands in the physically indexed cache.
func (p *Process) unrefRange(vpn vm.VPN, n uint64) error {
	var err error
	p.space.Runs(vpn, n, func(_ vm.VPN, frames []phys.FrameID, _ vm.Prot) bool {
		for _, f := range frames {
			if err = p.unref(f); err != nil {
				return false
			}
		}
		return true
	})
	return err
}

// pageRange checks a syscall's page-aligned range of n pages from addr and
// returns its first page. It compares n with the pages left below the
// user-space limit instead of computing the range's end, so no n wraps
// past it.
func pageRange(call string, addr vm.Addr, n uint64) (vm.VPN, error) {
	if vm.Offset(addr) != 0 || vm.CheckRange(vm.PageOf(addr), n) != nil {
		return 0, fmt.Errorf("kernel: bad %s %#x/%d pages", call, addr, n)
	}
	return vm.PageOf(addr), nil
}

// mapFresh reserves and maps n fresh pages RW, charging an mmap syscall if
// charge is set. It needs no shootdown: fresh pages were never mapped, so no
// TLB entry holds a translation for one.
func (p *Process) mapFresh(n uint64, charge bool) (vm.Addr, error) {
	vpn, err := p.space.ReservePages(n)
	if err != nil {
		return 0, err
	}
	frames := make([]phys.FrameID, n)
	// On failure, the pages framed before it stay mapped, as they would
	// under a page-at-a-time kernel.
	k, err := p.sys.mem.AllocFrames(frames)
	frames = frames[:k]
	if len(frames) > 0 {
		if merr := p.space.Map(vpn, frames, vm.ProtRW); merr != nil {
			return 0, merr
		}
		p.ref(frames)
	}
	if err != nil {
		return 0, err
	}
	if charge {
		p.chargeSyscall(SysMmap, n)
	}
	return uint64(vpn) << vm.PageShift, nil
}

// Mmap allocates length bytes of fresh zeroed memory at a kernel-chosen
// address (anonymous private mapping), rounded up to whole pages.
func (p *Process) Mmap(length uint64) (vm.Addr, error) {
	n := length / vm.PageSize
	if length%vm.PageSize != 0 {
		n++ // rounded without adding to length, which could wrap
	}
	if n == 0 {
		return 0, fmt.Errorf("kernel: mmap of zero length")
	}
	if err := p.checkInject(SysMmap, n, true, true); err != nil {
		return 0, err
	}
	return p.mapFresh(n, true)
}

// MmapFixed maps n pages RW at the given page-aligned address, backed by
// fresh zeroed frames, replacing any existing mappings (MAP_FIXED). This is
// how virtual pages taken from the shared free list are recycled as new pool
// pages.
func (p *Process) MmapFixed(addr vm.Addr, n uint64) error {
	vpn, err := pageRange("fixed mapping", addr, n)
	if err != nil {
		return err
	}
	if err := p.checkInject(SysMmap, n, false, true); err != nil {
		return err
	}
	// Page by page, the old frame is released before the new one is
	// allocated, so a frame this call frees is the next one it hands out.
	frames := make([]phys.FrameID, n)
	var i, dropped uint64 // pages framed; pages whose old frame is released
	alloc := func(to uint64) error {
		for ; i < to; i++ {
			f, err := p.sys.mem.AllocFrame()
			if err != nil {
				return err
			}
			frames[i] = f
		}
		return nil
	}
	p.space.Runs(vpn, n, func(start vm.VPN, old []phys.FrameID, _ vm.Prot) bool {
		if err = alloc(uint64(start - vpn)); err != nil {
			return false
		}
		for _, f := range old {
			if err = p.unref(f); err != nil {
				return false
			}
			dropped = i + 1
			if err = alloc(i + 1); err != nil {
				return false
			}
		}
		return true
	})
	if err == nil {
		err = alloc(n)
	}
	if i > 0 {
		// On failure, the pages framed before it are mapped anyway, as
		// they would be under a page-at-a-time kernel.
		if merr := p.space.Map(vpn, frames[:i], vm.ProtRW); merr != nil {
			return merr
		}
		p.ref(frames[:i])
		p.mmu.FlushRange(vpn, i)
	}
	if err != nil {
		if dropped > i {
			// The failing page's old mapping is gone too.
			if _, uerr := p.space.Unmap(vpn+vm.VPN(i), 1); uerr != nil {
				return uerr
			}
			p.mmu.FlushRange(vpn+vm.VPN(i), 1)
		}
		return err
	}
	p.chargeSyscall(SysMmap, n)
	return nil
}

// Munmap unmaps n pages starting at the page-aligned addr, freeing frames
// whose last mapping is removed.
func (p *Process) Munmap(addr vm.Addr, n uint64) error {
	vpn, err := pageRange("munmap", addr, n)
	if err != nil {
		return err
	}
	err = p.unrefRange(vpn, n)
	if _, uerr := p.space.Unmap(vpn, n); err == nil {
		err = uerr
	}
	p.mmu.FlushRange(vpn, n)
	if err != nil {
		return err
	}
	p.chargeSyscall(SysMmap, n)
	return nil
}

// Mprotect sets the protection of n pages starting at the page-aligned addr.
// This is the deallocation-side syscall of the paper's scheme: freed objects'
// shadow pages become ProtNone so any later use traps.
func (p *Process) Mprotect(addr vm.Addr, n uint64, prot vm.Prot) error {
	vpn, err := pageRange("mprotect", addr, n)
	if err != nil {
		return err
	}
	if err := p.checkInject(SysMprotect, n, false, false); err != nil {
		return err
	}
	if err := p.protect(vpn, n, prot); err != nil {
		return err
	}
	p.chargeSyscall(SysMprotect, n)
	return nil
}

// protect changes the protection of a checked range and shoots down the
// pages it changed. At an unmapped page it stops with an error, after
// changing the pages before it.
func (p *Process) protect(vpn vm.VPN, n uint64, prot vm.Prot) error {
	done, err := p.space.Protect(vpn, n, prot)
	if done > 0 {
		p.mmu.FlushRange(vpn, done)
	}
	return err
}

// MprotectRuns changes the protection of several page runs in one kernel
// crossing. No 2006 kernel had this call; it models the batched-protection
// OS enhancement the paper's §6 proposes for allocation-intensive programs
// (one syscall amortized over many deallocations). Per-page page-table and
// shootdown work is still charged.
func (p *Process) MprotectRuns(runs [][2]uint64, prot vm.Prot) error {
	var pages uint64
	for _, r := range runs {
		if _, err := pageRange("mprotect run", r[0], r[1]); err != nil {
			return err
		}
		if r[1] > math.MaxUint64-pages {
			return fmt.Errorf("kernel: mprotect runs total over 2^64 pages")
		}
		pages += r[1]
	}
	if err := p.checkInject(SysMprotectRuns, pages, false, false); err != nil {
		return err
	}
	for _, r := range runs {
		if err := p.protect(vm.PageOf(r[0]), r[1], prot); err != nil {
			return err
		}
	}
	p.chargeSyscall(SysMprotectRuns, pages)
	return nil
}

// MremapAlias is the allocation-side syscall of the paper's scheme:
// mremap(old_address, old_size = 0, new_size) returns a fresh page-aligned
// block of virtual memory aliased to the same physical frames as the pages
// starting at old_address. The old mapping stays intact.
func (p *Process) MremapAlias(oldAddr vm.Addr, n uint64) (vm.Addr, error) {
	oldVPN, err := pageRange("mremap", oldAddr, n)
	if err != nil {
		return 0, err
	}
	if err := p.checkInject(SysMremap, n, true, false); err != nil {
		return 0, err
	}
	newVPN, err := p.space.ReservePages(n)
	if err != nil {
		return 0, err
	}
	// Fresh pages were never mapped, so no TLB entry holds a translation
	// for one and there is nothing to shoot down.
	if err := p.alias(newVPN, oldVPN, n); err != nil {
		return 0, fmt.Errorf("kernel: mremap of unmapped page %#x", oldAddr+p.space.Mapped(oldVPN, n)*vm.PageSize)
	}
	p.chargeSyscall(SysMremap, n)
	return uint64(newVPN) << vm.PageShift, nil
}

// alias maps the n pages from dst RW onto the frames behind the n pages from
// src and counts the new references. At an unmapped source page it stops
// with an error, after mapping the pages before it.
func (p *Process) alias(dst, src vm.VPN, n uint64) error {
	done, err := p.space.Alias(dst, src, n, vm.ProtRW)
	if done > 0 {
		p.space.Runs(dst, done, func(_ vm.VPN, frames []phys.FrameID, _ vm.Prot) bool {
			p.ref(frames)
			return true
		})
	}
	return err
}

// RemapFixedAlias points n already-reserved virtual pages starting at addr
// at the frames backing the pages starting at srcAddr, with protection RW.
// It is used when recycling shadow pages from the shared free list (the
// aliasing equivalent of MmapFixed). Existing mappings at addr are replaced.
// The two ranges must not overlap.
func (p *Process) RemapFixedAlias(addr, srcAddr vm.Addr, n uint64) error {
	dst, derr := pageRange("fixed alias", addr, n)
	src, serr := pageRange("fixed alias", srcAddr, n)
	if derr != nil || serr != nil || uint64(dst-src) < n || uint64(src-dst) < n {
		return fmt.Errorf("kernel: bad fixed alias %#x<-%#x/%d", addr, srcAddr, n)
	}
	if err := p.checkInject(SysMremap, n, false, false); err != nil {
		return err
	}
	// Only the pages whose source is mapped are replaced: at the first
	// unmapped source page the call stops, after the pages before it.
	// Releasing the old frames first frees none the source maps, since
	// the ranges are disjoint.
	k := p.space.Mapped(src, n)
	if k > 0 {
		if err := p.unrefRange(dst, k); err != nil {
			return err
		}
		if err := p.alias(dst, src, k); err != nil {
			return err
		}
		p.mmu.FlushRange(dst, k)
	}
	if k < n {
		return fmt.Errorf("kernel: alias of unmapped page %#x", srcAddr+k*vm.PageSize)
	}
	p.chargeSyscall(SysMremap, n)
	return nil
}

// Exit tears the process down, releasing every frame its address space
// references back to the machine. The §4.3 servers fork a process per
// connection and rely on exit to reclaim both physical memory and (in the
// real OS) the per-process page table — "any wastage in address space in one
// connection is not carried over to the other connections".
func (p *Process) Exit() error {
	// Frames go back in ascending page order (unrefRange's), so the next
	// process's frames, and with them its cache behaviour, are
	// deterministic.
	all := uint64(vm.UserAddrLimit >> vm.PageShift)
	if err := p.unrefRange(0, all); err != nil {
		return err
	}
	_, err := p.space.Unmap(0, all)
	p.mmu.FlushAll()
	return err
}

// frameRefPool recycles released processes' frame reference tables.
var frameRefPool sync.Pool // *[]int32, empty

// Release hands the range-map nodes, TLB entries and cache lines this
// process owns, its frame reference table and its flight recorder back to
// their shared pools. The process is unusable afterwards; release its
// System's physical memory after it.
func (p *Process) Release() {
	p.space.Release()
	p.mmu.Release()
	clear(p.frameRefs)
	box := p.refsBox
	if box == nil {
		box = new([]int32)
	}
	*box = p.frameRefs[:0]
	frameRefPool.Put(box)
	p.frameRefs, p.refsBox = nil, nil
	p.flight.Release()
	p.flight = nil
}

// DummySyscall charges the cost of one no-op syscall. The paper's
// "PA + dummy syscalls" configuration isolates syscall overhead from TLB
// overhead by issuing a dummy mremap per allocation and a dummy mprotect per
// deallocation.
func (p *Process) DummySyscall() {
	p.chargeSyscall(SysDummy, 0)
}
