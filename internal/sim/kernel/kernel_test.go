package kernel

import (
	"errors"
	"math"
	"testing"

	"repro/internal/sim/vm"
)

func newProc(t *testing.T) *Process {
	t.Helper()
	cfg := DefaultConfig()
	cfg.SiteProfile = true
	sys := NewSystem(cfg)
	p, err := NewProcess(sys, cfg)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	return p
}

func TestMmapReadWrite(t *testing.T) {
	p := newProc(t)
	addr, err := p.Mmap(2 * vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	m := p.MMU()
	if err := m.WriteWord(addr+100, 8, 0xDEADBEEF); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := m.ReadWord(addr+100, 8)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("read back %#x, want 0xDEADBEEF", v)
	}
}

func TestMmapChargesSyscall(t *testing.T) {
	p := newProc(t)
	before := p.Meter().Syscalls()
	if _, err := p.Mmap(vm.PageSize); err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	if got := p.Meter().Syscalls() - before; got != 1 {
		t.Fatalf("Mmap charged %d syscalls, want 1", got)
	}
}

func TestMprotectTraps(t *testing.T) {
	p := newProc(t)
	addr, err := p.Mmap(vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	if err := p.Mprotect(addr, 1, vm.ProtNone); err != nil {
		t.Fatalf("Mprotect: %v", err)
	}
	var fault *vm.Fault
	err = p.MMU().ReadBytes(addr, make([]byte, 1))
	if !errors.As(err, &fault) {
		t.Fatalf("expected fault, got %v", err)
	}
	if fault.Reason != vm.FaultProtection {
		t.Fatalf("fault reason %v, want protection", fault.Reason)
	}
}

func TestMremapAliasSharesFrame(t *testing.T) {
	// The paper's allocation-path syscall: a fresh VA block aliased to
	// the canonical page's frame. Writes through one alias are visible
	// through the other; protecting one leaves the other usable.
	p := newProc(t)
	canon, err := p.Mmap(vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	shadow, err := p.MremapAlias(canon, 1)
	if err != nil {
		t.Fatalf("MremapAlias: %v", err)
	}
	if shadow == canon {
		t.Fatal("shadow must be a fresh virtual address")
	}

	m := p.MMU()
	if err := m.WriteWord(canon+8, 8, 42); err != nil {
		t.Fatalf("write canonical: %v", err)
	}
	v, err := m.ReadWord(shadow+8, 8)
	if err != nil {
		t.Fatalf("read shadow: %v", err)
	}
	if v != 42 {
		t.Fatalf("aliasing broken: read %d through shadow, want 42", v)
	}

	// Protect only the shadow: shadow faults, canonical still works.
	if err := p.Mprotect(shadow, 1, vm.ProtNone); err != nil {
		t.Fatalf("Mprotect shadow: %v", err)
	}
	if err := m.ReadBytes(shadow+8, make([]byte, 1)); err == nil {
		t.Fatal("shadow read should fault after mprotect")
	}
	if _, err := m.ReadWord(canon+8, 8); err != nil {
		t.Fatalf("canonical read should still work: %v", err)
	}
}

func TestMremapAliasPhysicalNeutral(t *testing.T) {
	// Insight 1's headline claim: shadow pages consume no extra physical
	// memory.
	p := newProc(t)
	canon, err := p.Mmap(4 * vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	before := p.System().PhysMemory().InUse()
	for i := 0; i < 10; i++ {
		if _, err := p.MremapAlias(canon, 4); err != nil {
			t.Fatalf("MremapAlias: %v", err)
		}
	}
	after := p.System().PhysMemory().InUse()
	if after != before {
		t.Fatalf("aliasing consumed %d extra frames", after-before)
	}
}

func TestMunmapFreesFrameOnlyAtLastRef(t *testing.T) {
	p := newProc(t)
	canon, err := p.Mmap(vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	shadow, err := p.MremapAlias(canon, 1)
	if err != nil {
		t.Fatalf("MremapAlias: %v", err)
	}
	mem := p.System().PhysMemory()
	inUse := mem.InUse()

	if err := p.Munmap(shadow, 1); err != nil {
		t.Fatalf("Munmap shadow: %v", err)
	}
	if mem.InUse() != inUse {
		t.Fatal("frame freed while canonical mapping still live")
	}
	if err := p.Munmap(canon, 1); err != nil {
		t.Fatalf("Munmap canonical: %v", err)
	}
	if mem.InUse() != inUse-1 {
		t.Fatalf("frame not freed at last unmap: inUse %d -> %d", inUse, mem.InUse())
	}
}

func TestMmapFixedRecyclesAddress(t *testing.T) {
	p := newProc(t)
	addr, err := p.Mmap(vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	if err := p.MMU().WriteWord(addr, 8, 7); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := p.Munmap(addr, 1); err != nil {
		t.Fatalf("Munmap: %v", err)
	}
	if err := p.MmapFixed(addr, 1); err != nil {
		t.Fatalf("MmapFixed: %v", err)
	}
	v, err := p.MMU().ReadWord(addr, 8)
	if err != nil {
		t.Fatalf("read after recycle: %v", err)
	}
	if v != 0 {
		t.Fatalf("recycled page not zeroed: %d", v)
	}
}

func TestMmapFixedReplacesProtectedMapping(t *testing.T) {
	// A shadow page that was PROT_NONE'd at free and later recycled must
	// become usable again.
	p := newProc(t)
	canon, err := p.Mmap(vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	shadow, err := p.MremapAlias(canon, 1)
	if err != nil {
		t.Fatalf("MremapAlias: %v", err)
	}
	if err := p.Mprotect(shadow, 1, vm.ProtNone); err != nil {
		t.Fatalf("Mprotect: %v", err)
	}
	if err := p.MmapFixed(shadow, 1); err != nil {
		t.Fatalf("MmapFixed over protected page: %v", err)
	}
	if err := p.MMU().WriteWord(shadow, 8, 1); err != nil {
		t.Fatalf("recycled shadow page unusable: %v", err)
	}
}

func TestRemapFixedAlias(t *testing.T) {
	p := newProc(t)
	canon, err := p.Mmap(vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	// A stale page from the free list (previously mapped elsewhere).
	stale, err := p.Mmap(vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	if err := p.RemapFixedAlias(stale, canon, 1); err != nil {
		t.Fatalf("RemapFixedAlias: %v", err)
	}
	if err := p.MMU().WriteWord(canon+16, 8, 77); err != nil {
		t.Fatalf("write: %v", err)
	}
	v, err := p.MMU().ReadWord(stale+16, 8)
	if err != nil {
		t.Fatalf("read through recycled alias: %v", err)
	}
	if v != 77 {
		t.Fatalf("recycled alias sees %d, want 77", v)
	}
}

func TestStackAndGlobals(t *testing.T) {
	p := newProc(t)
	if p.StackLimit() <= p.StackBase() {
		t.Fatal("bad stack bounds")
	}
	g1, err := p.AllocGlobal(12)
	if err != nil {
		t.Fatalf("AllocGlobal: %v", err)
	}
	g2, err := p.AllocGlobal(8)
	if err != nil {
		t.Fatalf("AllocGlobal: %v", err)
	}
	if g2 < g1+16 { // 12 rounds to 16
		t.Fatalf("globals overlap: %#x then %#x", g1, g2)
	}
	if err := p.MMU().WriteWord(g1, 8, 5); err != nil {
		t.Fatalf("global write: %v", err)
	}
}

func TestExitReleasesFrames(t *testing.T) {
	cfg := DefaultConfig()
	sys := NewSystem(cfg)
	base := sys.PhysMemory().InUse()

	p, err := NewProcess(sys, cfg)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	if _, err := p.Mmap(8 * vm.PageSize); err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	if sys.PhysMemory().InUse() <= base {
		t.Fatal("process should consume frames")
	}
	if err := p.Exit(); err != nil {
		t.Fatalf("Exit: %v", err)
	}
	if got := sys.PhysMemory().InUse(); got != base {
		t.Fatalf("Exit leaked frames: inUse = %d, want %d", got, base)
	}
}

func TestDummySyscall(t *testing.T) {
	p := newProc(t)
	before := p.Meter().Snapshot()
	p.DummySyscall()
	delta := p.Meter().Snapshot().Sub(before)
	if delta.Syscalls != 1 || delta.Cycles == 0 {
		t.Fatalf("dummy syscall delta: %v", delta)
	}
}

func TestWriteAcrossPageBoundary(t *testing.T) {
	p := newProc(t)
	addr, err := p.Mmap(2 * vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	at := addr + vm.PageSize - 3 // straddles the boundary
	if err := p.MMU().WriteWord(at, 8, 0x1122334455667788); err != nil {
		t.Fatalf("straddling write: %v", err)
	}
	v, err := p.MMU().ReadWord(at, 8)
	if err != nil {
		t.Fatalf("straddling read: %v", err)
	}
	if v != 0x1122334455667788 {
		t.Fatalf("straddling read = %#x", v)
	}
	// Protect the second page: the straddling access must now fault.
	if err := p.Mprotect(addr+vm.PageSize, 1, vm.ProtNone); err != nil {
		t.Fatalf("Mprotect: %v", err)
	}
	if err := p.MMU().WriteWord(at, 8, 1); err == nil {
		t.Fatal("straddling write into protected page should fault")
	}
}

// TestRangeSyscallsRefuseWrappingRanges calls each range syscall with a
// range that crosses the 47-bit boundary, starts past it, or has a page count
// near 2^64. Each call must return an error without panicking and leave the
// process as it was: nothing mapped or reserved, no frame taken, no cycle
// charged.
func TestRangeSyscallsRefuseWrappingRanges(t *testing.T) {
	const limit = vm.UserAddrLimit
	lastPage := limit - vm.PageSize
	huge := uint64(math.MaxUint64)
	calls := []struct {
		name string
		call func(p *Process, mapped vm.Addr) error
	}{
		{"mmap 2^64-1 bytes", func(p *Process, _ vm.Addr) error { _, err := p.Mmap(huge); return err }},
		{"mmap 2^47 bytes", func(p *Process, _ vm.Addr) error { _, err := p.Mmap(limit); return err }},
		{"mmap-fixed across the boundary", func(p *Process, _ vm.Addr) error { return p.MmapFixed(lastPage, 2) }},
		{"mmap-fixed past the boundary", func(p *Process, _ vm.Addr) error { return p.MmapFixed(limit, 1) }},
		{"mmap-fixed 2^64-1 pages", func(p *Process, m vm.Addr) error { return p.MmapFixed(m, huge) }},
		{"munmap across the boundary", func(p *Process, _ vm.Addr) error { return p.Munmap(lastPage, 2) }},
		{"munmap 2^64-1 pages", func(p *Process, m vm.Addr) error { return p.Munmap(m, huge) }},
		{"mprotect across the boundary", func(p *Process, _ vm.Addr) error { return p.Mprotect(lastPage, 2, vm.ProtNone) }},
		{"mprotect 2^64-1 pages", func(p *Process, m vm.Addr) error { return p.Mprotect(m, huge, vm.ProtNone) }},
		{"mprotect at the top address", func(p *Process, _ vm.Addr) error { return p.Mprotect(huge&^(vm.PageSize-1), 1, vm.ProtNone) }},
		{"mprotect-runs 2^64-1 pages", func(p *Process, m vm.Addr) error {
			return p.MprotectRuns([][2]uint64{{m, 1}, {m, huge}}, vm.ProtNone)
		}},
		{"mremap across the boundary", func(p *Process, _ vm.Addr) error { _, err := p.MremapAlias(lastPage, 2); return err }},
		{"mremap 2^64-1 pages", func(p *Process, m vm.Addr) error { _, err := p.MremapAlias(m, huge); return err }},
		{"mremap 2^35 pages", func(p *Process, m vm.Addr) error { _, err := p.MremapAlias(m, 1<<35); return err }},
		{"fixed alias across the boundary", func(p *Process, m vm.Addr) error { return p.RemapFixedAlias(lastPage, m, 2) }},
		{"fixed alias from across the boundary", func(p *Process, m vm.Addr) error { return p.RemapFixedAlias(m, lastPage, 2) }},
		{"fixed alias 2^64-1 pages", func(p *Process, m vm.Addr) error { return p.RemapFixedAlias(m+vm.PageSize, m, huge) }},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			p := newProc(t)
			mapped, err := p.Mmap(2 * vm.PageSize)
			if err != nil {
				t.Fatal(err)
			}
			type state struct {
				mapped, reserved, frames, cycles, syscalls uint64
				next                                       vm.VPN
			}
			snap := func() state {
				s := p.Space()
				return state{s.MappedPages(), s.ReservedPages(),
					p.System().PhysMemory().InUse(), p.Meter().Cycles(), p.Meter().Syscalls(), s.NextFreshPage()}
			}
			before := snap()
			if err := c.call(p, mapped); err == nil {
				t.Fatal("the call succeeded")
			}
			if after := snap(); after != before {
				t.Fatalf("the refused call changed the process: %+v -> %+v", before, after)
			}
		})
	}
}

// BenchmarkAliasProtect times the page work of one shadow-page object's
// life at the kernel: the mremap alias of a 12–36-page canonical block, a
// first touch through the alias, and the mprotect that poisons it at free.
// Every 160 objects, the size of a replay-unique trace, it starts over on a
// fresh process, outside the timing.
func BenchmarkAliasProtect(b *testing.B) {
	cfg := DefaultConfig()
	var p *Process
	var canon vm.Addr
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%160 == 0 {
			b.StopTimer()
			if p != nil {
				p.Release()
				p.System().PhysMemory().Release()
			}
			var err error
			if p, err = NewProcess(NewSystem(cfg), cfg); err != nil {
				b.Fatal(err)
			}
			if canon, err = p.Mmap(36 * vm.PageSize); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		n := uint64(12 + i%25)
		shadow, err := p.MremapAlias(canon, n)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.MMU().WriteWord(shadow+8, 8, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := p.Mprotect(shadow, n, vm.ProtNone); err != nil {
			b.Fatal(err)
		}
	}
}
