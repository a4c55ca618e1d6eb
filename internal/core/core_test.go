package core

import (
	"errors"
	"testing"

	"repro/internal/heap"
	"repro/internal/pool"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

type fixture struct {
	proc *kernel.Process
	heap *heap.Heap
	rt   *pool.Runtime
	rm   *Remapper
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	kcfg := kernel.DefaultConfig()
	kcfg.SiteProfile = true
	sys := kernel.NewSystem(kcfg)
	proc, err := kernel.NewProcess(sys, kcfg)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	return &fixture{
		proc: proc,
		heap: heap.New(proc),
		rt:   pool.NewRuntime(proc),
		rm:   New(proc, cfg),
	}
}

func (f *fixture) alloc(t *testing.T, size uint64) vm.Addr {
	t.Helper()
	a, err := f.rm.Alloc(HeapAllocator{f.heap}, nil, size, "test.c:1")
	if err != nil {
		t.Fatalf("Alloc(%d): %v", size, err)
	}
	return a
}

func (f *fixture) free(t *testing.T, a vm.Addr) {
	t.Helper()
	if err := f.rm.Free(HeapAllocator{f.heap}, a, "test.c:2"); err != nil {
		t.Fatalf("Free(%#x): %v", a, err)
	}
}

// read performs a program-level read, routing faults through the detector
// the way the interpreter does.
func (f *fixture) read(a vm.Addr) error {
	_, err := f.proc.MMU().ReadWord(a, 8)
	var fault *vm.Fault
	if errors.As(err, &fault) {
		return f.rm.Explain(fault, "test.c:3")
	}
	return err
}

func (f *fixture) write(a vm.Addr, v uint64) error {
	err := f.proc.MMU().WriteWord(a, 8, v)
	var fault *vm.Fault
	if errors.As(err, &fault) {
		return f.rm.Explain(fault, "test.c:3")
	}
	return err
}

func TestAllocatedMemoryUsable(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 64)
	for i := uint64(0); i < 64; i += 8 {
		if err := f.write(a+i, i*3); err != nil {
			t.Fatalf("write at +%d: %v", i, err)
		}
	}
	for i := uint64(0); i < 64; i += 8 {
		v, err := f.proc.MMU().ReadWord(a+i, 8)
		if err != nil {
			t.Fatalf("read at +%d: %v", i, err)
		}
		if v != i*3 {
			t.Fatalf("at +%d: got %d, want %d", i, v, i*3)
		}
	}
}

func TestUseAfterFreeDetected(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 32)
	f.free(t, a)

	err := f.read(a)
	var de *DanglingError
	if !errors.As(err, &de) {
		t.Fatalf("expected DanglingError, got %v", err)
	}
	if de.Object.AllocSite != "test.c:1" || de.Object.FreeSite != "test.c:2" {
		t.Fatalf("bad provenance: %+v", de.Object)
	}
	if de.Offset != 0 {
		t.Fatalf("offset = %d, want 0", de.Offset)
	}
	if de.Fault.Access != vm.AccessRead {
		t.Fatalf("access = %v, want read", de.Fault.Access)
	}
}

func TestDanglingWriteDetected(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 32)
	f.free(t, a)
	err := f.write(a+16, 99)
	var de *DanglingError
	if !errors.As(err, &de) {
		t.Fatalf("expected DanglingError, got %v", err)
	}
	if de.Offset != 16 {
		t.Fatalf("offset = %d, want 16", de.Offset)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 32)
	f.free(t, a)
	err := f.rm.Free(HeapAllocator{f.heap}, a, "test.c:9")
	var de *DanglingError
	if !errors.As(err, &de) {
		t.Fatalf("expected DanglingError on double free, got %v", err)
	}
	if !de.IsDouble() {
		t.Fatalf("IsDouble = false; offset = %d", de.Offset)
	}
	if de.UseSite != "test.c:9" {
		t.Fatalf("UseSite = %q", de.UseSite)
	}
}

func TestDetectionSurvivesCanonicalReuse(t *testing.T) {
	// The scenario heuristic tools miss (§5.1): the freed memory is
	// reused by a new allocation, yet the stale pointer still traps, and
	// the new object is unaffected.
	f := newFixture(t, Config{})
	a := f.alloc(t, 48)
	f.free(t, a)
	b := f.alloc(t, 48) // underlying allocator reuses the canonical chunk

	if err := f.write(b, 7); err != nil {
		t.Fatalf("new object should be writable: %v", err)
	}
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("stale pointer should still trap after reuse, got %v", err)
	}
	v, err := f.proc.MMU().ReadWord(b, 8)
	if err != nil || v != 7 {
		t.Fatalf("new object damaged: %v %d", err, v)
	}
}

func TestPhysicalMemoryNeutrality(t *testing.T) {
	// Insight 1's claim: physical consumption matches the original
	// program (one canonical heap), no matter how many shadow pages exist.
	f := newFixture(t, Config{})
	warm := func() {
		a := f.alloc(t, 40)
		f.free(t, a)
	}
	for i := 0; i < 10; i++ {
		warm()
	}
	frames := f.proc.System().PhysMemory().InUse()
	for i := 0; i < 2000; i++ {
		warm()
	}
	if got := f.proc.System().PhysMemory().InUse(); got != frames {
		t.Fatalf("shadow-page churn grew physical memory: %d -> %d frames", frames, got)
	}
}

func TestVirtualGrowthWithoutPools(t *testing.T) {
	// The §3.2 limitation Insight 2 fixes: every allocation consumes a
	// fresh virtual page that is never reused.
	f := newFixture(t, Config{})
	before := f.proc.Space().ReservedPages()
	const n = 500
	for i := 0; i < n; i++ {
		a := f.alloc(t, 16)
		f.free(t, a)
	}
	grown := f.proc.Space().ReservedPages() - before
	if grown < n {
		t.Fatalf("VA growth = %d pages for %d allocations; want >= %d", grown, n, n)
	}
}

func TestObjectsSharePhysicalPagePreservingLocality(t *testing.T) {
	// Two small allocations land on the same canonical page (spatial
	// locality in a physically indexed cache) but on distinct shadow
	// pages.
	f := newFixture(t, Config{})
	a := f.alloc(t, 16)
	b := f.alloc(t, 16)

	oa := f.rm.ObjectAt(a)
	ob := f.rm.ObjectAt(b)
	if oa == nil || ob == nil {
		t.Fatal("missing object records")
	}
	if vm.PageOf(oa.CanonAddr) != vm.PageOf(ob.CanonAddr) {
		t.Fatalf("canonical pages differ: %#x vs %#x — locality lost",
			oa.CanonAddr, ob.CanonAddr)
	}
	if vm.PageOf(a) == vm.PageOf(b) {
		t.Fatal("shadow pages must be distinct per object")
	}
	// Freeing a must not affect b.
	f.free(t, a)
	if err := f.write(b, 5); err != nil {
		t.Fatalf("neighbor object affected by free: %v", err)
	}
}

func TestMultiPageObject(t *testing.T) {
	f := newFixture(t, Config{})
	size := uint64(3*vm.PageSize + 100)
	a := f.alloc(t, size)
	if err := f.write(a+size-8, 1); err != nil {
		t.Fatalf("write at end of multi-page object: %v", err)
	}
	f.free(t, a)
	// Every page of the object must trap.
	for _, off := range []uint64{0, vm.PageSize, 2 * vm.PageSize, size - 8} {
		var de *DanglingError
		if err := f.read(a + off); !errors.As(err, &de) {
			t.Fatalf("offset %d not protected after free: %v", off, err)
		}
	}
}

func TestSameOffsetWithinPage(t *testing.T) {
	// §3.2: the caller sees the object "on a different page but at the
	// same location within the page" — required for the underlying
	// allocator's addressing to stay consistent.
	f := newFixture(t, Config{})
	for _, size := range []uint64{16, 24, 100, 1000} {
		a := f.alloc(t, size)
		obj := f.rm.ObjectAt(a)
		if vm.Offset(a) != vm.Offset(obj.CanonAddr+remapHeaderSize) {
			t.Fatalf("offset mismatch: shadow %#x vs canon %#x", a, obj.CanonAddr)
		}
	}
}

func TestWildPointerIsNotDangling(t *testing.T) {
	f := newFixture(t, Config{})
	err := f.read(0x40) // NULL-guard page
	var de *DanglingError
	if errors.As(err, &de) {
		t.Fatal("wild access misreported as dangling")
	}
	var fault *vm.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("expected plain fault, got %v", err)
	}
}

func TestFreeOfNonHeapPointer(t *testing.T) {
	f := newFixture(t, Config{})
	g, err := f.proc.AllocGlobal(16)
	if err != nil {
		t.Fatalf("AllocGlobal: %v", err)
	}
	if err := f.rm.Free(HeapAllocator{f.heap}, g+8, "test.c:5"); err == nil {
		t.Fatal("free of global pointer not rejected")
	}
}

func TestStatsAccounting(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 32)
	b := f.alloc(t, 32)
	f.free(t, a)
	_ = f.read(a)
	st := f.rm.Stats()
	if st.Allocs != 2 || st.Frees != 1 {
		t.Fatalf("allocs/frees = %d/%d", st.Allocs, st.Frees)
	}
	if st.DanglingDetected != 1 {
		t.Fatalf("DanglingDetected = %d, want 1", st.DanglingDetected)
	}
	if st.ShadowPagesLive == 0 || st.ShadowPagesFreed == 0 {
		t.Fatalf("page accounting: %+v", st)
	}
	_ = b
}

func TestSyscallPerAllocAndFree(t *testing.T) {
	// The paper's cost structure: exactly one extra syscall per
	// allocation (mremap) and one per deallocation (mprotect), beyond
	// whatever the allocator itself does.
	f := newFixture(t, Config{})
	// Warm up so the underlying heap has its arena.
	a := f.alloc(t, 32)
	f.free(t, a)

	before := f.proc.Meter().Syscalls()
	b := f.alloc(t, 32)
	allocCalls := f.proc.Meter().Syscalls() - before
	if allocCalls != 1 {
		t.Fatalf("alloc made %d syscalls, want 1 (mremap)", allocCalls)
	}
	before = f.proc.Meter().Syscalls()
	f.free(t, b)
	freeCalls := f.proc.Meter().Syscalls() - before
	if freeCalls != 1 {
		t.Fatalf("free made %d syscalls, want 1 (mprotect)", freeCalls)
	}
}
