package mmu

import (
	"errors"
	"testing"

	"repro/internal/sim/cost"
	"repro/internal/sim/phys"
	"repro/internal/sim/tlb"
	"repro/internal/sim/vm"
)

func newMMU(t *testing.T) (*MMU, *vm.Space, *phys.Memory, *cost.Meter) {
	t.Helper()
	space := vm.NewSpace()
	mem := phys.NewMemory(0)
	meter := cost.NewMeter(cost.Default())
	m := New(space, mem, meter, DefaultConfig())
	return m, space, mem, meter
}

// mapPages maps n fresh RW pages and returns the base address.
func mapPages(t *testing.T, space *vm.Space, mem *phys.Memory, n uint64) vm.Addr {
	t.Helper()
	vpn, err := space.ReservePages(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		f, err := mem.AllocFrame()
		if err != nil {
			t.Fatal(err)
		}
		space.Map(vpn+vm.VPN(i), f, vm.ProtRW)
	}
	return uint64(vpn) << vm.PageShift
}

func TestWordSizes(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 1)
	for _, size := range []int{1, 2, 4, 8} {
		val := uint64(0x1122334455667788) & (1<<(8*size) - 1)
		if err := m.WriteWord(a, size, 0x1122334455667788); err != nil {
			t.Fatalf("write%d: %v", size, err)
		}
		got, err := m.ReadWord(a, size)
		if err != nil {
			t.Fatalf("read%d: %v", size, err)
		}
		if got != val {
			t.Fatalf("size %d: got %#x want %#x", size, got, val)
		}
	}
	if _, err := m.ReadWord(a, 3); err == nil {
		t.Fatal("size 3 should be rejected")
	}
	if err := m.WriteWord(a, 5, 0); err == nil {
		t.Fatal("size 5 should be rejected")
	}
}

func TestChargesPerAccess(t *testing.T) {
	m, space, mem, meter := newMMU(t)
	a := mapPages(t, space, mem, 1)
	before := meter.MemAccesses()
	if err := m.WriteWord(a, 8, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadWord(a, 8); err != nil {
		t.Fatal(err)
	}
	if got := meter.MemAccesses() - before; got != 2 {
		t.Fatalf("charged %d accesses, want 2", got)
	}
}

func TestTLBHierarchyCharging(t *testing.T) {
	m, space, mem, meter := newMMU(t)
	a := mapPages(t, space, mem, 1)

	// First touch: full miss.
	c0 := meter.Cycles()
	if _, err := m.ReadWord(a, 8); err != nil {
		t.Fatal(err)
	}
	missCost := meter.Cycles() - c0

	// Second touch: L1 hit.
	c1 := meter.Cycles()
	if _, err := m.ReadWord(a, 8); err != nil {
		t.Fatal(err)
	}
	hitCost := meter.Cycles() - c1

	model := cost.Default()
	if missCost < hitCost+model.TLBMiss {
		t.Fatalf("first access %d vs second %d: TLB miss not charged", missCost, hitCost)
	}
}

func TestL2TLBCatchesMediumWorkingSets(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	// 128 pages: beyond L1 (64) but inside L2 (512).
	a := mapPages(t, space, mem, 128)
	// Warm both levels.
	for p := uint64(0); p < 128; p++ {
		if _, err := m.ReadWord(a+p*vm.PageSize, 8); err != nil {
			t.Fatal(err)
		}
	}
	l2Before := m.TLB2().Misses()
	for p := uint64(0); p < 128; p++ {
		if _, err := m.ReadWord(a+p*vm.PageSize, 8); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.TLB2().Misses() - l2Before; got != 0 {
		t.Fatalf("L2 missed %d times on a 128-page resident set", got)
	}
	if m.TLB1().Misses() == 0 {
		t.Fatal("L1 should miss on a 128-page working set")
	}
}

func TestCacheHitsOnReuse(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 1)
	if err := m.WriteWord(a, 8, 7); err != nil {
		t.Fatal(err)
	}
	misses := m.CacheMisses()
	for i := 0; i < 10; i++ {
		if _, err := m.ReadWord(a, 8); err != nil {
			t.Fatal(err)
		}
	}
	if m.CacheMisses() != misses {
		t.Fatal("repeated same-line access should hit the cache")
	}
	if m.CacheHits() == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestPhysicallyIndexedCacheSharedAcrossAliases(t *testing.T) {
	// The property that makes the shadow scheme cache-neutral: accesses
	// through different virtual pages to the same physical line hit.
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 1)
	frame, _, _ := space.Lookup(vm.PageOf(a))
	aliasVPN, err := space.ReservePages(1)
	if err != nil {
		t.Fatal(err)
	}
	space.Map(aliasVPN, frame, vm.ProtRW)
	alias := uint64(aliasVPN) << vm.PageShift

	if _, err := m.ReadWord(a+64, 8); err != nil { // warm the line
		t.Fatal(err)
	}
	misses := m.CacheMisses()
	if _, err := m.ReadWord(alias+64, 8); err != nil {
		t.Fatal(err)
	}
	if m.CacheMisses() != misses {
		t.Fatal("aliased access missed: cache is not physically indexed")
	}
}

func TestFaultsPropagate(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 1)
	if err := space.Protect(vm.PageOf(a), vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	var fault *vm.Fault
	if err := m.WriteWord(a, 8, 1); !errors.As(err, &fault) {
		t.Fatalf("want fault, got %v", err)
	}
	if fault.Access != vm.AccessWrite || fault.Reason != vm.FaultProtection {
		t.Fatalf("fault = %+v", fault)
	}
	if _, err := m.ReadWord(a, 8); err != nil {
		t.Fatalf("read of read-only page should work: %v", err)
	}
}

func TestPeekPokeBypassChargesAndProtection(t *testing.T) {
	m, space, mem, meter := newMMU(t)
	a := mapPages(t, space, mem, 1)
	if err := space.Protect(vm.PageOf(a), vm.ProtNone); err != nil {
		t.Fatal(err)
	}
	before := meter.Snapshot()
	if err := m.PokeBytes(a, []byte{1, 2, 3}); err != nil {
		t.Fatalf("Poke on protected page should work (loader/GC view): %v", err)
	}
	buf := make([]byte, 3)
	if err := m.PeekBytes(a, buf); err != nil {
		t.Fatalf("Peek: %v", err)
	}
	if buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("peek = %v", buf)
	}
	if v, err := m.PeekWord(a, 2); err != nil || v != 0x0201 {
		t.Fatalf("PeekWord = %#x, %v", v, err)
	}
	if delta := meter.Snapshot().Sub(before); delta.Cycles != 0 || delta.MemAccesses != 0 {
		t.Fatalf("peek/poke charged the meter: %v", delta)
	}
	// Unmapped addresses still error.
	if err := m.PeekBytes(0x10, buf); err == nil {
		t.Fatal("peek of unmapped memory should fail")
	}
	if err := m.PokeBytes(0x10, buf); err == nil {
		t.Fatal("poke of unmapped memory should fail")
	}
}

func TestFlushPageAffectsBothLevels(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 1)
	if _, err := m.ReadWord(a, 8); err != nil {
		t.Fatal(err)
	}
	m.FlushPage(vm.PageOf(a))
	l1m, l2m := m.TLB1().Misses(), m.TLB2().Misses()
	if _, err := m.ReadWord(a, 8); err != nil {
		t.Fatal(err)
	}
	if m.TLB1().Misses() != l1m+1 || m.TLB2().Misses() != l2m+1 {
		t.Fatal("flush did not invalidate both TLB levels")
	}
}

func TestCrossPageAccessChargesPerPage(t *testing.T) {
	m, space, mem, meter := newMMU(t)
	a := mapPages(t, space, mem, 2)
	straddle := a + vm.PageSize - 4
	before := meter.MemAccesses()
	if err := m.WriteWord(straddle, 8, 0xFFFF_FFFF_FFFF_FFFF); err != nil {
		t.Fatal(err)
	}
	if got := meter.MemAccesses() - before; got != 2 {
		t.Fatalf("straddling write charged %d accesses, want 2", got)
	}
}

func TestInvalidConfigFallsBack(t *testing.T) {
	space := vm.NewSpace()
	mem := phys.NewMemory(0)
	meter := cost.NewMeter(cost.Default())
	m := New(space, mem, meter, Config{
		TLB1:  tlb.Config{},
		TLB2:  tlb.Config{},
		Cache: CacheConfig{Lines: -1, LineSize: 3},
	})
	a := mapPages(t, space, mem, 1)
	if err := m.WriteWord(a, 8, 1); err != nil {
		t.Fatalf("fallback config broken: %v", err)
	}
}

// TestTranslationCacheInvalidatedByProtNone is the dangling-pointer
// correctness case for the one-entry translation cache: an access loads the
// cache with (vpn, frame, rw); mprotect(PROT_NONE) on that same page — the
// free path's poisoning step — must not let the next access ride the stale
// cached protection. The epoch check forces a fresh page-table walk, which
// faults.
func TestTranslationCacheInvalidatedByProtNone(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 1)
	vpn := vm.PageOf(a)

	// Prime the translation cache with a successful access.
	if err := m.WriteWord(a, 8, 0xdead); err != nil {
		t.Fatal(err)
	}
	if err := space.Protect(vpn, vm.ProtNone); err != nil {
		t.Fatal(err)
	}
	m.FlushPage(vpn) // the kernel's shootdown after mprotect
	var fault *vm.Fault
	if _, err := m.ReadWord(a, 8); !errors.As(err, &fault) || fault.Reason != vm.FaultProtection {
		t.Fatalf("read after PROT_NONE = %v, want protection fault", err)
	}
	if err := m.WriteWord(a, 8, 1); !errors.As(err, &fault) || fault.Reason != vm.FaultProtection {
		t.Fatalf("write after PROT_NONE = %v, want protection fault", err)
	}

	// Restore read access: the next read must see the new bits, again
	// without a shootdown race through the stale cache entry.
	if err := space.Protect(vpn, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	m.FlushPage(vpn)
	if v, err := m.ReadWord(a, 8); err != nil || v != 0xdead {
		t.Fatalf("read after re-protect = %v, %v; want 0xdead", v, err)
	}
	if err := m.WriteWord(a, 8, 1); !errors.As(err, &fault) || fault.Reason != vm.FaultProtection {
		t.Fatalf("write through r- page = %v, want protection fault", err)
	}
}

// TestTranslationCacheSurvivesEpochOnOtherPage checks the cache is only as
// conservative as it needs to be: a mutation on a *different* page bumps the
// epoch and forces a re-walk, but the re-walk re-validates and the access
// still succeeds with the same outcome.
func TestTranslationCacheSurvivesEpochOnOtherPage(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 2)
	other := vm.PageOf(a) + 1
	if err := m.WriteWord(a, 8, 42); err != nil {
		t.Fatal(err)
	}
	if err := space.Protect(other, vm.ProtNone); err != nil {
		t.Fatal(err)
	}
	m.FlushPage(other)
	if v, err := m.ReadWord(a, 8); err != nil || v != 42 {
		t.Fatalf("read after unrelated mprotect = %v, %v; want 42", v, err)
	}
}

// TestTranslationCacheInvalidatedByUnmapRemap remaps the cached page to a
// different frame and checks the next access reads through the new mapping —
// the cached frame must not leak stale data.
func TestTranslationCacheInvalidatedByUnmapRemap(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 1)
	vpn := vm.PageOf(a)
	if err := m.WriteWord(a, 8, 0x1111); err != nil {
		t.Fatal(err)
	}
	f2, err := mem.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	copy(mem.Frame(f2)[:], []byte{0x22, 0x22, 0, 0, 0, 0, 0, 0})
	space.Map(vpn, f2, vm.ProtRW)
	m.FlushPage(vpn)
	if v, err := m.ReadWord(a, 8); err != nil || v != 0x2222 {
		t.Fatalf("read after remap = %#x, %v; want 0x2222", v, err)
	}
}

// benchSpace builds an MMU over n mapped RW pages for the access benchmarks.
func benchSpace(b *testing.B, legacy bool, pages uint64) (*MMU, vm.Addr) {
	b.Helper()
	var space *vm.Space
	if legacy {
		space = vm.NewLegacyMapSpace()
	} else {
		space = vm.NewSpace()
	}
	mem := phys.NewMemory(0)
	meter := cost.NewMeter(cost.Default())
	m := New(space, mem, meter, DefaultConfig())
	vpn, err := space.ReservePages(pages)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		f, err := mem.AllocFrame()
		if err != nil {
			b.Fatal(err)
		}
		space.Map(vpn+vm.VPN(i), f, vm.ProtRW)
	}
	return m, uint64(vpn) << vm.PageShift
}

// benchmarkAccess measures the full simulated load path — page table (radix
// or legacy map), translation cache, TLB hierarchy, data cache, cycle meter.
// Every access lands on a different page than the last (page stride plus a
// small prime offset), so the one-entry translation cache never hits and
// each iteration performs a real page-table lookup — the operation the radix
// tree replaces the map hash in.
func benchmarkAccess(b *testing.B, legacy bool) {
	const pages = 512
	m, base := benchSpace(b, legacy, pages)
	// Pre-touch so the timed loop measures steady state.
	for p := uint64(0); p < pages; p++ {
		if _, err := m.ReadWord(base+p*vm.PageSize, 8); err != nil {
			b.Fatal(err)
		}
	}
	addr := base
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadWord(addr, 8); err != nil {
			b.Fatal(err)
		}
		addr += vm.PageSize + 8*13
		if addr >= base+pages*vm.PageSize {
			addr = base + (addr-base)%vm.PageSize
		}
	}
}

// BenchmarkAccess compares the simulated-access fast path against the two
// page-table implementations. The radix sub-benchmark is the production
// configuration; the legacy map is the pre-optimization baseline the
// radix page table's speedup is measured against.
func BenchmarkAccess(b *testing.B) {
	b.Run("radix", func(b *testing.B) { benchmarkAccess(b, false) })
	b.Run("legacy-map", func(b *testing.B) { benchmarkAccess(b, true) })
}
