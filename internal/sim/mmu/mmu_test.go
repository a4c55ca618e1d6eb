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

// mapPage maps one page of space onto frame.
func mapPage(t testing.TB, space *vm.Space, vpn vm.VPN, frame phys.FrameID, prot vm.Prot) {
	t.Helper()
	if err := space.Map(vpn, []phys.FrameID{frame}, prot); err != nil {
		t.Fatal(err)
	}
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
		mapPage(t, space, vpn+vm.VPN(i), f, vm.ProtRW)
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
	mapPage(t, space, aliasVPN, frame, vm.ProtRW)
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
	if _, err := space.Protect(vm.PageOf(a), 1, vm.ProtRead); err != nil {
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
	if _, err := space.Protect(vm.PageOf(a), 1, vm.ProtNone); err != nil {
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
	m.FlushRange(vm.PageOf(a), 1)
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
// correctness case for the translations the TLB caches: an access fills
// both levels' entries with (frame, rw); mprotect(PROT_NONE) on that same
// page — the free path's poisoning step — must not let the next access ride
// the stale cached protection. The kernel's shootdown drops the entries, so
// the next access walks the mappings and faults.
func TestTranslationCacheInvalidatedByProtNone(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 1)
	vpn := vm.PageOf(a)

	// Prime the translation cache with a successful access.
	if err := m.WriteWord(a, 8, 0xdead); err != nil {
		t.Fatal(err)
	}
	if _, err := space.Protect(vpn, 1, vm.ProtNone); err != nil {
		t.Fatal(err)
	}
	m.FlushRange(vpn, 1) // the kernel's shootdown after mprotect
	var fault *vm.Fault
	if _, err := m.ReadWord(a, 8); !errors.As(err, &fault) || fault.Reason != vm.FaultProtection {
		t.Fatalf("read after PROT_NONE = %v, want protection fault", err)
	}
	if err := m.WriteWord(a, 8, 1); !errors.As(err, &fault) || fault.Reason != vm.FaultProtection {
		t.Fatalf("write after PROT_NONE = %v, want protection fault", err)
	}

	// Restore read access: the next read must see the new bits, again
	// without a shootdown race through the stale cache entry.
	if _, err := space.Protect(vpn, 1, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	m.FlushRange(vpn, 1)
	if v, err := m.ReadWord(a, 8); err != nil || v != 0xdead {
		t.Fatalf("read after re-protect = %v, %v; want 0xdead", v, err)
	}
	if err := m.WriteWord(a, 8, 1); !errors.As(err, &fault) || fault.Reason != vm.FaultProtection {
		t.Fatalf("write through r- page = %v, want protection fault", err)
	}
}

// TestTranslationCacheSurvivesEpochOnOtherPage checks the cache is only as
// conservative as it needs to be: a protection change and shootdown on a
// *different* page leaves the cached translation of this one in place, and
// the access still succeeds with the same outcome.
func TestTranslationCacheSurvivesEpochOnOtherPage(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 2)
	other := vm.PageOf(a) + 1
	if err := m.WriteWord(a, 8, 42); err != nil {
		t.Fatal(err)
	}
	if _, err := space.Protect(other, 1, vm.ProtNone); err != nil {
		t.Fatal(err)
	}
	m.FlushRange(other, 1)
	if v, err := m.ReadWord(a, 8); err != nil || v != 42 {
		t.Fatalf("read after unrelated mprotect = %v, %v; want 42", v, err)
	}
}

// TestTranslationCacheInvalidatedByUnmapRemap remaps the cached page to a
// different frame and checks the next access, after the shootdown, reads
// through the new mapping — the cached frame must not leak stale data.
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
	copy(mem.FrameForWrite(f2)[:], []byte{0x22, 0x22, 0, 0, 0, 0, 0, 0})
	mapPage(t, space, vpn, f2, vm.ProtRW)
	m.FlushRange(vpn, 1)
	if v, err := m.ReadWord(a, 8); err != nil || v != 0x2222 {
		t.Fatalf("read after remap = %#x, %v; want 0x2222", v, err)
	}
}

// TestTranslationCacheAcrossLevels checks the translations the two levels
// carry: over 128 pages, more than L1 holds and fewer than L2 does, each
// page reads back its own value when its translation comes from L2, and a
// page first touched while unmapped, whose entry that fault left without a
// translation, reads through the mapping made after it with no shootdown,
// as a fresh mmap makes it.
func TestTranslationCacheAcrossLevels(t *testing.T) {
	m, space, mem, _ := newMMU(t)
	a := mapPages(t, space, mem, 128)
	for round := 0; round < 2; round++ {
		for p := uint64(0); p < 128; p++ {
			if round == 0 {
				if err := m.WriteWord(a+p*vm.PageSize, 8, p+1); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if v, err := m.ReadWord(a+p*vm.PageSize, 8); err != nil || v != p+1 {
				t.Fatalf("page %d reads %d, %v; want %d", p, v, err, p+1)
			}
		}
	}
	if m.TLB2().Hits() == 0 {
		t.Fatal("no translation came from L2")
	}

	vpn, err := space.ReservePages(1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := uint64(vpn) << vm.PageShift
	var fault *vm.Fault
	if _, err := m.ReadWord(fresh, 8); !errors.As(err, &fault) || fault.Reason != vm.FaultUnmapped {
		t.Fatalf("read of a reserved, unmapped page = %v, want an unmapped fault", err)
	}
	f, err := mem.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	mapPage(t, space, vpn, f, vm.ProtRW)
	if err := m.WriteWord(fresh, 8, 99); err != nil {
		t.Fatalf("write after mapping the faulted page: %v", err)
	}
	if v, err := m.ReadWord(fresh, 8); err != nil || v != 99 {
		t.Fatalf("read after mapping the faulted page = %d, %v; want 99", v, err)
	}
}

// benchMMU maps n fresh RW pages for a benchmark, touches each once so the
// timed loop measures steady state, and returns the MMU and the base address.
func benchMMU(b *testing.B, n uint64) (*MMU, vm.Addr) {
	b.Helper()
	space := vm.NewSpace()
	mem := phys.NewMemory(0)
	m := New(space, mem, cost.NewMeter(cost.Default()), DefaultConfig())
	vpn, err := space.ReservePages(n)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		f, err := mem.AllocFrame()
		if err != nil {
			b.Fatal(err)
		}
		mapPage(b, space, vpn+vm.VPN(i), f, vm.ProtRW)
	}
	base := uint64(vpn) << vm.PageShift
	for p := uint64(0); p < n; p++ {
		if _, err := m.ReadWord(base+p*vm.PageSize, 8); err != nil {
			b.Fatal(err)
		}
	}
	return m, base
}

// BenchmarkAccess measures the full simulated load path — TLB hierarchy and
// the translations it carries, address-space walk, data cache, cycle meter.
// Every access lands on a different page than the last (page stride plus a
// small prime offset) over 512 one-page mappings, more than L1 holds, so
// most accesses miss L1 and take L2's translation, and some miss both and
// walk the mappings.
func BenchmarkAccess(b *testing.B) {
	const pages = 512
	m, base := benchMMU(b, pages)
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

// BenchmarkAccessPingPong measures reads alternating between two pages, the
// pattern of an interpreter touching its stack and the heap in turn: each
// access hits L1 on a different page than the last, so its translation
// comes from the L1 entry.
func BenchmarkAccessPingPong(b *testing.B) {
	m, base := benchMMU(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadWord(base+uint64(i&1)*vm.PageSize+uint64(i&63)*8, 8); err != nil {
			b.Fatal(err)
		}
	}
}
