package vm

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim/phys"
)

func TestPageArithmetic(t *testing.T) {
	tests := []struct {
		name string
		addr Addr
		vpn  VPN
		base Addr
		off  uint64
	}{
		{"zero", 0, 0, 0, 0},
		{"mid page", 100, 0, 0, 100},
		{"page boundary", 4096, 1, 4096, 0},
		{"second page mid", 8200, 2, 8192, 8},
		{"large", 0x7fff_ffff_f123, 0x7_ffff_ffff, 0x7fff_ffff_f000, 0x123},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PageOf(tt.addr); got != tt.vpn {
				t.Errorf("PageOf(%#x) = %#x, want %#x", tt.addr, got, tt.vpn)
			}
			if got := PageBase(tt.addr); got != tt.base {
				t.Errorf("PageBase(%#x) = %#x, want %#x", tt.addr, got, tt.base)
			}
			if got := Offset(tt.addr); got != tt.off {
				t.Errorf("Offset(%#x) = %#x, want %#x", tt.addr, got, tt.off)
			}
		})
	}
}

func TestPageSpan(t *testing.T) {
	tests := []struct {
		name string
		addr Addr
		size uint64
		want uint64
	}{
		{"zero size", 0, 0, 0},
		{"one byte", 10, 1, 1},
		{"whole page", 4096, 4096, 1},
		{"crosses boundary", 4090, 16, 2},
		{"exactly two pages", 4096, 8192, 2},
		{"ends at boundary", 0, 4096, 1},
		{"one byte past boundary", 0, 4097, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := PageSpan(tt.addr, tt.size); got != tt.want {
				t.Errorf("PageSpan(%#x, %d) = %d, want %d", tt.addr, tt.size, got, tt.want)
			}
		})
	}
}

func TestTranslateUnmapped(t *testing.T) {
	s := NewSpace()
	_, fault := s.Translate(0x1000, AccessRead)
	if fault == nil {
		t.Fatal("expected fault on unmapped page")
	}
	if fault.Reason != FaultUnmapped {
		t.Fatalf("Reason = %v, want unmapped", fault.Reason)
	}
}

func TestTranslateProtection(t *testing.T) {
	s := NewSpace()
	s.Map(5, 7, ProtRead)
	addr := Addr(5 * PageSize)

	if _, fault := s.Translate(addr, AccessRead); fault != nil {
		t.Fatalf("read of read-only page faulted: %v", fault)
	}
	_, fault := s.Translate(addr, AccessWrite)
	if fault == nil {
		t.Fatal("write of read-only page did not fault")
	}
	if fault.Reason != FaultProtection {
		t.Fatalf("Reason = %v, want protection", fault.Reason)
	}

	if err := s.Protect(5, ProtNone); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if _, fault := s.Translate(addr, AccessRead); fault == nil || fault.Reason != FaultProtection {
		t.Fatalf("read of PROT_NONE page: fault = %v, want protection fault", fault)
	}

	if err := s.Protect(5, ProtRW); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	frame, fault := s.Translate(addr, AccessWrite)
	if fault != nil {
		t.Fatalf("write after re-protect faulted: %v", fault)
	}
	if frame != 7 {
		t.Fatalf("frame = %d, want 7", frame)
	}
}

func TestAliasingIndependentProtections(t *testing.T) {
	// The core of Insight 1: two virtual pages map the same frame with
	// different protections.
	s := NewSpace()
	const frame = phys.FrameID(3)
	s.Map(10, frame, ProtRW)
	s.Map(20, frame, ProtNone)

	if _, fault := s.Translate(10*PageSize, AccessWrite); fault != nil {
		t.Fatalf("canonical page should be writable: %v", fault)
	}
	if _, fault := s.Translate(20*PageSize, AccessRead); fault == nil {
		t.Fatal("shadow page should fault")
	}
	f1, _, _ := s.Lookup(10)
	f2, _, _ := s.Lookup(20)
	if f1 != f2 {
		t.Fatalf("aliases disagree on frame: %d vs %d", f1, f2)
	}
}

func TestReservePagesFresh(t *testing.T) {
	s := NewSpace()
	a, err := s.ReservePages(3)
	if err != nil {
		t.Fatalf("ReservePages: %v", err)
	}
	b, err := s.ReservePages(1)
	if err != nil {
		t.Fatalf("ReservePages: %v", err)
	}
	if b < a+3 {
		t.Fatalf("second reservation %#x overlaps first %#x+3", b, a)
	}
	if s.ReservedPages() != 4 {
		t.Fatalf("ReservedPages = %d, want 4", s.ReservedPages())
	}
}

func TestReserveZeroPages(t *testing.T) {
	s := NewSpace()
	if _, err := s.ReservePages(0); err == nil {
		t.Fatal("expected error for zero-page reservation")
	}
}

func TestAddressSpaceExhaustion(t *testing.T) {
	s := NewSpace()
	// Reserve nearly the whole 47-bit space in one call, then overflow.
	almostAll := (UserAddrLimit >> PageShift) - uint64(s.NextFreshPage()) - 10
	if _, err := s.ReservePages(almostAll); err != nil {
		t.Fatalf("large reservation failed: %v", err)
	}
	if _, err := s.ReservePages(100); !errors.Is(err, ErrAddressSpaceExhausted) {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	// A small reservation that still fits should succeed.
	if _, err := s.ReservePages(5); err != nil {
		t.Fatalf("small reservation should fit: %v", err)
	}
}

func TestUnmapAndPeak(t *testing.T) {
	s := NewSpace()
	s.Map(1, 0, ProtRW)
	s.Map(2, 1, ProtRW)
	if err := s.Unmap(1); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if err := s.Unmap(1); err == nil {
		t.Fatal("double unmap not detected")
	}
	if s.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", s.MappedPages())
	}
	if s.PeakMappedPages() != 2 {
		t.Fatalf("PeakMappedPages = %d, want 2", s.PeakMappedPages())
	}
}

func TestProtectUnmapped(t *testing.T) {
	s := NewSpace()
	if err := s.Protect(99, ProtNone); err == nil {
		t.Fatal("protect of unmapped page not detected")
	}
}

func TestProtString(t *testing.T) {
	tests := []struct {
		p    Prot
		want string
	}{
		{ProtNone, "--"},
		{ProtRead, "r-"},
		{ProtWrite, "-w"},
		{ProtRW, "rw"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Prot(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}

// Property: PageBase + Offset always reconstructs the address, and PageOf is
// consistent with PageBase.
func TestPageDecompositionProperty(t *testing.T) {
	f := func(addr uint64) bool {
		addr %= UserAddrLimit
		return PageBase(addr)+Offset(addr) == addr &&
			uint64(PageOf(addr))<<PageShift == PageBase(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: PageSpan is always between ceil(size/PageSize) and that plus one.
func TestPageSpanProperty(t *testing.T) {
	f := func(addr, size uint64) bool {
		addr %= UserAddrLimit / 2
		size = size%(1<<20) + 1
		span := PageSpan(addr, size)
		minPages := (size + PageSize - 1) / PageSize
		return span >= minPages && span <= minPages+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// forEachSpace runs an edge-case subtest against a fresh radix-backed Space.
func forEachSpace(t *testing.T, fn func(t *testing.T, s *Space)) {
	t.Helper()
	t.Run("radix", func(t *testing.T) { fn(t, NewSpace()) })
}

// TestBoundaryVPN maps the very last page of the 47-bit user space and
// checks that translation works right up to the final byte, that the first
// address past the boundary is unmapped, and that the radix walk indexes its
// top level in range.
func TestBoundaryVPN(t *testing.T) {
	forEachSpace(t, func(t *testing.T, s *Space) {
		last := VPN(UserAddrLimit>>PageShift) - 1
		s.Map(last, phys.FrameID(7), ProtRW)
		if f, p, ok := s.Lookup(last); !ok || f != 7 || p != ProtRW {
			t.Fatalf("Lookup(last) = %v %v %v", f, p, ok)
		}
		lastByte := UserAddrLimit - 1
		if f, fault := s.Translate(lastByte, AccessWrite); fault != nil || f != 7 {
			t.Fatalf("Translate(last byte) = %v %v", f, fault)
		}
		if _, fault := s.Translate(UserAddrLimit, AccessRead); fault == nil || fault.Reason != FaultUnmapped {
			t.Fatalf("Translate(limit) = %v, want unmapped fault", fault)
		}
		if got := s.MappedPages(); got != 1 {
			t.Fatalf("MappedPages = %d, want 1", got)
		}
		if err := s.Unmap(last); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.Lookup(last); ok {
			t.Fatal("last page still mapped after Unmap")
		}
	})
}

// TestMapBeyondUserSpacePanics locks in the radix table's explicit guard: a
// VPN past the 47-bit limit is a kernel bug, not a quiet extra mapping.
func TestMapBeyondUserSpacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Map beyond the user space did not panic")
		}
	}()
	NewSpace().Map(VPN(UserAddrLimit>>PageShift), phys.FrameID(1), ProtRW)
}

// TestAliasRemapOverExistingPTE re-maps a live VPN onto a different frame
// with different protections — the mremap-style aliasing path — and checks
// the entry is replaced, not duplicated: Lookup sees the new frame, the live
// entry count stays flat, and the old protections are gone.
func TestAliasRemapOverExistingPTE(t *testing.T) {
	forEachSpace(t, func(t *testing.T, s *Space) {
		vpn, err := s.ReservePages(1)
		if err != nil {
			t.Fatal(err)
		}
		s.Map(vpn, phys.FrameID(1), ProtRW)
		if got := s.MappedPages(); got != 1 {
			t.Fatalf("MappedPages = %d, want 1", got)
		}
		s.Map(vpn, phys.FrameID(2), ProtRead)
		if got := s.MappedPages(); got != 1 {
			t.Fatalf("MappedPages after remap = %d, want 1 (remap must replace)", got)
		}
		f, p, ok := s.Lookup(vpn)
		if !ok || f != 2 || p != ProtRead {
			t.Fatalf("Lookup after remap = %v %v %v, want frame 2 r-", f, p, ok)
		}
		addr := Addr(vpn) << PageShift
		if _, fault := s.Translate(addr, AccessWrite); fault == nil || fault.Reason != FaultProtection {
			t.Fatalf("write through remapped r- alias = %v, want protection fault", fault)
		}
		if f, fault := s.Translate(addr, AccessRead); fault != nil || f != 2 {
			t.Fatalf("read through remapped alias = %v %v, want frame 2", f, fault)
		}
	})
}

// TestProtectPartiallyMappedRange walks Protect across a range with a hole
// in the middle, the way the kernel's mprotect loop would: pages before the
// hole take the new protection, the hole reports an error, and pages after
// the hole are untouched by the failed call.
func TestProtectPartiallyMappedRange(t *testing.T) {
	forEachSpace(t, func(t *testing.T, s *Space) {
		base, err := s.ReservePages(4)
		if err != nil {
			t.Fatal(err)
		}
		// Map pages 0, 1, and 3; leave page 2 a hole.
		for _, i := range []VPN{0, 1, 3} {
			s.Map(base+i, phys.FrameID(10+uint64(i)), ProtRW)
		}
		var protErr error
		for i := VPN(0); i < 4 && protErr == nil; i++ {
			protErr = s.Protect(base+i, ProtNone)
		}
		if protErr == nil {
			t.Fatal("Protect over the hole did not error")
		}
		for _, i := range []VPN{0, 1} {
			if _, p, _ := s.Lookup(base + i); p != ProtNone {
				t.Errorf("page %d prot = %v, want -- (protected before the hole)", i, p)
			}
		}
		if _, p, _ := s.Lookup(base + 3); p != ProtRW {
			t.Errorf("page 3 prot = %v, want rw (untouched after the hole)", p)
		}
	})
}

// xorshift returns a deterministic pseudo-random stream; tests use no host
// randomness.
func xorshift() func() uint64 {
	state := uint64(0x9E3779B97F4A7C15)
	return func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
}

// modelPTE is one entry of TestRadixMatchesLegacyMap's model, kept unpacked
// so the model shares no code with the packed pte.
type modelPTE struct {
	frame phys.FrameID
	prot  Prot
}

// TestRadixMatchesLegacyMap drives the radix page table and a test-local
// map[VPN]modelPTE model of the original map-backed page table through the same
// pseudo-random mix of Map/Protect/Unmap/Translate traffic and requires
// identical observable state throughout.
func TestRadixMatchesLegacyMap(t *testing.T) {
	radix := NewSpace()
	model := make(map[VPN]modelPTE)
	next := xorshift()
	const pages = 300
	base, err := radix.ReservePages(pages)
	if err != nil {
		t.Fatal(err)
	}
	prots := []Prot{ProtNone, ProtRead, ProtRW}
	for step := 0; step < 5000; step++ {
		vpn := base + VPN(next()%pages)
		me, mapped := model[vpn]
		switch next() % 4 {
		case 0:
			frame := phys.FrameID(next() % 64)
			prot := prots[next()%uint64(len(prots))]
			radix.Map(vpn, frame, prot)
			model[vpn] = modelPTE{frame: frame, prot: prot}
		case 1:
			prot := prots[next()%uint64(len(prots))]
			if err := radix.Protect(vpn, prot); (err == nil) != mapped {
				t.Fatalf("step %d: Protect(%#x) err %v, model mapped %v", step, vpn, err, mapped)
			}
			if mapped {
				me.prot = prot
				model[vpn] = me
			}
		case 2:
			if err := radix.Unmap(vpn); (err == nil) != mapped {
				t.Fatalf("step %d: Unmap(%#x) err %v, model mapped %v", step, vpn, err, mapped)
			}
			delete(model, vpn)
		case 3:
			addr := Addr(vpn)<<PageShift + next()%PageSize
			kind, need := AccessRead, ProtRead
			if next()%2 == 0 {
				kind, need = AccessWrite, ProtWrite
			}
			var want *Fault
			switch {
			case !mapped:
				want = &Fault{Addr: addr, Access: kind, Reason: FaultUnmapped}
			case me.prot&need == 0:
				want = &Fault{Addr: addr, Access: kind, Reason: FaultProtection}
			}
			f, fault := radix.Translate(addr, kind)
			if (fault == nil) != (want == nil) || (want == nil && f != me.frame) {
				t.Fatalf("step %d: Translate(%#x, %v) = (%v, %v), model (%v, %v)",
					step, addr, kind, f, fault, me.frame, want)
			}
			if fault != nil && *fault != *want {
				t.Fatalf("step %d: fault %v, model %v", step, fault, want)
			}
		}
		if radix.MappedPages() != uint64(len(model)) {
			t.Fatalf("step %d: mapped %d (radix) vs %d (model)", step, radix.MappedPages(), len(model))
		}
	}
	// Final sweep: every page's Lookup must agree, and ForEach must visit
	// exactly the model's pages in ascending order.
	for i := VPN(0); i < pages; i++ {
		f, p, ok := radix.Lookup(base + i)
		me, mok := model[base+i]
		if f != me.frame || p != me.prot || ok != mok {
			t.Fatalf("page %d: radix (%v,%v,%v) vs model (%v,%v,%v)", i, f, p, ok, me.frame, me.prot, mok)
		}
	}
	var visited []VPN
	radix.ForEach(func(v VPN, f phys.FrameID, p Prot) {
		if me := model[v]; f != me.frame || p != me.prot {
			t.Fatalf("ForEach(%#x) = (%v,%v), model (%v,%v)", v, f, p, me.frame, me.prot)
		}
		visited = append(visited, v)
	})
	checkAscendingKeys(t, visited, model)
}

// checkAscendingKeys requires got to hold exactly model's keys, ascending.
func checkAscendingKeys[V any](t *testing.T, got []VPN, model map[VPN]V) {
	t.Helper()
	if len(got) != len(model) {
		t.Fatalf("visited %d pages, model holds %d", len(got), len(model))
	}
	for i, v := range got {
		if _, ok := model[v]; !ok {
			t.Fatalf("visited page %#x the model does not hold", v)
		}
		if i > 0 && got[i-1] >= v {
			t.Fatalf("visit order not ascending: %#x then %#x", got[i-1], v)
		}
	}
}

// TestPooledNodesComeBackEmpty fills a page table and a page map across leaf
// and mid-level boundaries, releases both, and checks that the page table
// and page map built next from the same pools hold nothing of theirs.
func TestPooledNodesComeBackEmpty(t *testing.T) {
	spots := []VPN{16, radixLeafSize - 2, radixLeafSize*radixMidSize - 2}
	var pages []VPN
	for _, v := range spots {
		pages = append(pages, v, v+1, v+2, v+3)
	}
	var objects NodePool[*int]
	obj := new(int)
	for round := 0; round < 8; round++ {
		old := NewSpace()
		for _, v := range pages {
			old.Map(v, phys.FrameID(v), ProtRW)
		}
		old.Release()

		var pm PageMap[*int]
		pm.UsePool(&objects)
		for _, v := range pages {
			pm.Set(v, obj)
		}
		pm.Release()

		s := NewSpace()
		s.Map(pages[1], 9, ProtRW)
		next := PageMap[*int]{}
		next.UsePool(&objects)
		next.Set(pages[1], obj)
		for _, v := range pages[2:] {
			if _, _, ok := s.Lookup(v); ok {
				t.Fatalf("round %d: a pooled page-table node still maps %#x", round, v)
			}
			if next.Get(v) != nil {
				t.Fatalf("round %d: a pooled page-map node still holds %#x", round, v)
			}
		}
		if _, _, ok := s.Lookup(pages[0]); ok || next.Get(pages[0]) != nil {
			t.Fatalf("round %d: a pooled node still holds %#x", round, pages[0])
		}
	}
}

// TestPageMapMatchesMapModel drives a PageMap and a map model through random
// Set and delete-by-zero traffic spread across leaf and mid-level boundaries
// and up to the last user page, checking Get after every step and ForEach's
// keys and order at the end.
func TestPageMapMatchesMapModel(t *testing.T) {
	var pm PageMap[uint32]
	model := make(map[VPN]uint32)
	next := xorshift()
	last := VPN(UserAddrLimit>>PageShift) - 1
	// Clusters straddle a leaf boundary, a mid-level boundary and the end
	// of the user space.
	clusters := []VPN{16, radixLeafSize - 40, radixLeafSize*radixMidSize - 40, last - 79}
	for step := 0; step < 20000; step++ {
		vpn := clusters[next()%uint64(len(clusters))] + VPN(next()%80)
		if next()%3 == 0 {
			pm.Set(vpn, 0)
			delete(model, vpn)
		} else {
			v := uint32(next()%1000) + 1
			pm.Set(vpn, v)
			model[vpn] = v
		}
		probe := clusters[next()%uint64(len(clusters))] + VPN(next()%80)
		if got, want := pm.Get(probe), model[probe]; got != want {
			t.Fatalf("step %d: Get(%#x) = %d, model %d", step, probe, got, want)
		}
	}
	if got := pm.Get(last + 1); got != 0 {
		t.Fatalf("Get beyond the user space = %d, want 0", got)
	}
	var visited []VPN
	pm.ForEach(func(v VPN, val uint32) {
		if val != model[v] {
			t.Fatalf("ForEach(%#x) = %d, model %d", v, val, model[v])
		}
		visited = append(visited, v)
	})
	checkAscendingKeys(t, visited, model)
}

// TestReservePagesRefusesWrappingCounts asks for reservations whose size
// would wrap the bump pointer or the budget counter: both must fail with
// ErrAddressSpaceExhausted and leave the space's counters unchanged.
func TestReservePagesRefusesWrappingCounts(t *testing.T) {
	check := func(t *testing.T, s *Space, n uint64) {
		t.Helper()
		next, reserved := s.NextFreshPage(), s.ReservedPages()
		if v, err := s.ReservePages(n); !errors.Is(err, ErrAddressSpaceExhausted) {
			t.Fatalf("ReservePages(%#x) = %#x, %v; want ErrAddressSpaceExhausted", n, v, err)
		}
		if s.NextFreshPage() != next || s.ReservedPages() != reserved {
			t.Fatalf("failed reservation moved next %#x -> %#x, reserved %d -> %d",
				next, s.NextFreshPage(), reserved, s.ReservedPages())
		}
	}
	t.Run("limit", func(t *testing.T) { check(t, NewSpace(), math.MaxUint64) })
	t.Run("budget", func(t *testing.T) {
		s := NewSpace()
		if _, err := s.ReservePages(10); err != nil {
			t.Fatal(err)
		}
		s.SetBudget(100)
		check(t, s, math.MaxUint64-5)
	})
}

// BenchmarkTranslate isolates the page-table walk itself: Lookup over a
// 64Ki-page working set, without the TLB, cache and meter work of the full
// MMU access path.
func BenchmarkTranslate(b *testing.B) {
	s := NewSpace()
	const pages = 65536
	vpn, err := s.ReservePages(pages)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		s.Map(vpn+VPN(i), phys.FrameID(i%512), ProtRW)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		f, _, ok := s.Lookup(vpn + VPN(uint64(i*13)%pages))
		if !ok {
			b.Fatal("lookup miss")
		}
		sink += uint64(f)
	}
	_ = sink
}
