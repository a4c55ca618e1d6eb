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

// translate is what an access of the given kind to addr finds when it walks
// s: the frame backing it, or the fault CheckAccess gives on its Lookup.
func translate(s *Space, addr Addr, kind AccessKind) (phys.FrameID, *Fault) {
	f, prot, ok := s.Lookup(PageOf(addr))
	if fault := CheckAccess(addr, kind, prot, ok); fault != nil {
		return 0, fault
	}
	return f, nil
}

func TestTranslateUnmapped(t *testing.T) {
	s := NewSpace()
	_, fault := translate(s, 0x1000, AccessRead)
	if fault == nil {
		t.Fatal("expected fault on unmapped page")
	}
	if fault.Reason != FaultUnmapped {
		t.Fatalf("Reason = %v, want unmapped", fault.Reason)
	}
}

func TestTranslateProtection(t *testing.T) {
	s := NewSpace()
	mapPage(t, s, 5, 7, ProtRead)
	addr := Addr(5 * PageSize)

	if _, fault := translate(s, addr, AccessRead); fault != nil {
		t.Fatalf("read of read-only page faulted: %v", fault)
	}
	_, fault := translate(s, addr, AccessWrite)
	if fault == nil {
		t.Fatal("write of read-only page did not fault")
	}
	if fault.Reason != FaultProtection {
		t.Fatalf("Reason = %v, want protection", fault.Reason)
	}

	if _, err := s.Protect(5, 1, ProtNone); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if _, fault := translate(s, addr, AccessRead); fault == nil || fault.Reason != FaultProtection {
		t.Fatalf("read of PROT_NONE page: fault = %v, want protection fault", fault)
	}

	if _, err := s.Protect(5, 1, ProtRW); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	frame, fault := translate(s, addr, AccessWrite)
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
	mapPage(t, s, 10, frame, ProtRW)
	mapPage(t, s, 20, frame, ProtNone)

	if _, fault := translate(s, 10*PageSize, AccessWrite); fault != nil {
		t.Fatalf("canonical page should be writable: %v", fault)
	}
	if _, fault := translate(s, 20*PageSize, AccessRead); fault == nil {
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
	mapPage(t, s, 1, 0, ProtRW)
	mapPage(t, s, 2, 1, ProtRW)
	if n, err := s.Unmap(1, 1); n != 1 || err != nil {
		t.Fatalf("Unmap = %d, %v; want 1 page", n, err)
	}
	if n, err := s.Unmap(1, 1); n != 0 || err != nil {
		t.Fatalf("second Unmap = %d, %v; want 0 pages (already unmapped)", n, err)
	}
	if s.MappedPages() != 1 {
		t.Fatalf("MappedPages = %d, want 1", s.MappedPages())
	}
}

func TestProtectUnmapped(t *testing.T) {
	s := NewSpace()
	if _, err := s.Protect(99, 1, ProtNone); err == nil {
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

// forEachSpace runs an edge-case subtest against a fresh Space.
func forEachSpace(t *testing.T, fn func(t *testing.T, s *Space)) {
	t.Helper()
	t.Run("radix", func(t *testing.T) { fn(t, NewSpace()) })
}

// TestBoundaryVPN maps the very last page of the 47-bit user space and
// checks that translation works right up to the final byte and that the
// first address past the boundary is unmapped.
func TestBoundaryVPN(t *testing.T) {
	forEachSpace(t, func(t *testing.T, s *Space) {
		last := VPN(UserAddrLimit>>PageShift) - 1
		mapPage(t, s, last, 7, ProtRW)
		if f, p, ok := s.Lookup(last); !ok || f != 7 || p != ProtRW {
			t.Fatalf("Lookup(last) = %v %v %v", f, p, ok)
		}
		lastByte := UserAddrLimit - 1
		if f, fault := translate(s, lastByte, AccessWrite); fault != nil || f != 7 {
			t.Fatalf("translate(last byte) = %v %v", f, fault)
		}
		if _, fault := translate(s, UserAddrLimit, AccessRead); fault == nil || fault.Reason != FaultUnmapped {
			t.Fatalf("translate(limit) = %v, want unmapped fault", fault)
		}
		if got := s.MappedPages(); got != 1 {
			t.Fatalf("MappedPages = %d, want 1", got)
		}
		if _, err := s.Unmap(last, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.Lookup(last); ok {
			t.Fatal("last page still mapped after Unmap")
		}
	})
}

// TestMapBeyondUserSpacePanics locks in the Space's guard: a VPN past the
// 47-bit limit is a kernel bug, not a quiet extra mapping, so the Space
// refuses such a range with an error and maps nothing.
func TestMapBeyondUserSpacePanics(t *testing.T) {
	s := NewSpace()
	if err := s.Map(VPN(UserAddrLimit>>PageShift), []phys.FrameID{1}, ProtRW); err == nil {
		t.Fatal("Map beyond the user space did not fail")
	}
	if got := s.MappedPages(); got != 0 {
		t.Fatalf("refused Map left %d pages mapped", got)
	}
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
		mapPage(t, s, vpn, 1, ProtRW)
		if got := s.MappedPages(); got != 1 {
			t.Fatalf("MappedPages = %d, want 1", got)
		}
		mapPage(t, s, vpn, 2, ProtRead)
		if got := s.MappedPages(); got != 1 {
			t.Fatalf("MappedPages after remap = %d, want 1 (remap must replace)", got)
		}
		f, p, ok := s.Lookup(vpn)
		if !ok || f != 2 || p != ProtRead {
			t.Fatalf("Lookup after remap = %v %v %v, want frame 2 r-", f, p, ok)
		}
		addr := Addr(vpn) << PageShift
		if _, fault := translate(s, addr, AccessWrite); fault == nil || fault.Reason != FaultProtection {
			t.Fatalf("write through remapped r- alias = %v, want protection fault", fault)
		}
		if f, fault := translate(s, addr, AccessRead); fault != nil || f != 2 {
			t.Fatalf("read through remapped alias = %v %v, want frame 2", f, fault)
		}
	})
}

// TestProtectPartiallyMappedRange protects a range with a hole in the
// middle, as the kernel's mprotect does: pages before the hole take the new
// protection, the hole reports an error, and pages after the hole are
// untouched by the failed call.
func TestProtectPartiallyMappedRange(t *testing.T) {
	forEachSpace(t, func(t *testing.T, s *Space) {
		base, err := s.ReservePages(4)
		if err != nil {
			t.Fatal(err)
		}
		// Map pages 0, 1, and 3; leave page 2 a hole.
		for _, i := range []VPN{0, 1, 3} {
			mapPage(t, s, base+i, phys.FrameID(10+uint64(i)), ProtRW)
		}
		done, protErr := s.Protect(base, 4, ProtNone)
		if protErr == nil {
			t.Fatal("Protect over the hole did not error")
		}
		if done != 2 {
			t.Errorf("Protect changed %d pages, want the 2 before the hole", done)
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

// mapPage maps one page of s onto frame.
func mapPage(t *testing.T, s *Space, vpn VPN, frame phys.FrameID, prot Prot) {
	t.Helper()
	if err := s.Map(vpn, []phys.FrameID{frame}, prot); err != nil {
		t.Fatal(err)
	}
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

// modelPTE is one page of TestRadixMatchesLegacyMap's per-page model.
type modelPTE struct {
	frame phys.FrameID
	prot  Prot
}

// TestRadixMatchesLegacyMap drives a Space and a test-local
// map[VPN]modelPTE model of the original per-page page table through the
// same pseudo-random mix of range Map/Protect/Unmap/Alias edits and
// translate traffic, with ranges that straddle holes, and requires identical
// observable state throughout: Lookup, Runs and MappedPages. A Protect or
// Alias that meets a hole changes the pages before it and not the pages
// after it.
func TestRadixMatchesLegacyMap(t *testing.T) {
	space := NewSpace()
	model := make(map[VPN]modelPTE)
	next := xorshift()
	const pages = 300
	if _, err := space.ReservePages(1<<12 - 150); err != nil {
		t.Fatal(err)
	}
	base, err := space.ReservePages(pages)
	if err != nil {
		t.Fatal(err)
	}
	prots := []Prot{ProtNone, ProtRead, ProtRW}
	// prefix returns how many of the n model pages from v are mapped
	// before the first hole.
	prefix := func(v VPN, n uint64) uint64 {
		k := uint64(0)
		for ; k < n; k++ {
			if _, ok := model[v+VPN(k)]; !ok {
				break
			}
		}
		return k
	}
	for step := 0; step < 5000; step++ {
		n := 1 + next()%24
		vpn := base + VPN(next()%(pages-n+1))
		switch next() % 5 {
		case 0:
			prot := prots[next()%uint64(len(prots))]
			frames := make([]phys.FrameID, n)
			for i := range frames {
				frames[i] = phys.FrameID(next() % 64)
				model[vpn+VPN(i)] = modelPTE{frame: frames[i], prot: prot}
			}
			if err := space.Map(vpn, frames, prot); err != nil {
				t.Fatalf("step %d: Map: %v", step, err)
			}
		case 1:
			prot := prots[next()%uint64(len(prots))]
			want := prefix(vpn, n)
			done, err := space.Protect(vpn, n, prot)
			if done != want || (err == nil) != (want == n) {
				t.Fatalf("step %d: Protect(%#x, %d) = %d, %v; model maps %d before a hole", step, vpn, n, done, err, want)
			}
			for i := uint64(0); i < want; i++ {
				me := model[vpn+VPN(i)]
				me.prot = prot
				model[vpn+VPN(i)] = me
			}
		case 2:
			want := uint64(0)
			for i := uint64(0); i < n; i++ {
				if _, ok := model[vpn+VPN(i)]; ok {
					want++
					delete(model, vpn+VPN(i))
				}
			}
			if got, err := space.Unmap(vpn, n); got != want || err != nil {
				t.Fatalf("step %d: Unmap(%#x, %d) = %d, %v; model held %d", step, vpn, n, got, err, want)
			}
		case 3:
			src := base + VPN(next()%(pages-n+1))
			if uint64(vpn-src) < n || uint64(src-vpn) < n {
				if _, err := space.Alias(vpn, src, n, ProtRW); err == nil {
					t.Fatalf("step %d: overlapping Alias(%#x, %#x, %d) did not fail", step, vpn, src, n)
				}
				break
			}
			prot := prots[next()%uint64(len(prots))]
			want := prefix(src, n)
			done, err := space.Alias(vpn, src, n, prot)
			if done != want || (err == nil) != (want == n) {
				t.Fatalf("step %d: Alias(%#x, %#x, %d) = %d, %v; model maps %d before a hole", step, vpn, src, n, done, err, want)
			}
			for i := uint64(0); i < want; i++ {
				model[vpn+VPN(i)] = modelPTE{frame: model[src+VPN(i)].frame, prot: prot}
			}
		case 4:
			addr := Addr(vpn)<<PageShift + next()%PageSize
			me, mapped := model[vpn]
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
			f, fault := translate(space, addr, kind)
			if (fault == nil) != (want == nil) || (want == nil && f != me.frame) {
				t.Fatalf("step %d: translate(%#x, %v) = (%v, %v), model (%v, %v)",
					step, addr, kind, f, fault, me.frame, want)
			}
			if fault != nil && *fault != *want {
				t.Fatalf("step %d: fault %v, model %v", step, fault, want)
			}
		}
		if space.MappedPages() != uint64(len(model)) {
			t.Fatalf("step %d: mapped %d (space) vs %d (model)", step, space.MappedPages(), len(model))
		}
		probe := base + VPN(next()%pages)
		f, p, ok := space.Lookup(probe)
		if me, mok := model[probe]; f != me.frame || p != me.prot || ok != mok {
			t.Fatalf("step %d: Lookup(%#x) = (%v,%v,%v), model (%v,%v,%v)", step, probe, f, p, ok, me.frame, me.prot, mok)
		}
	}
	// Final sweep: every page's Lookup must agree, and Runs must visit
	// exactly the model's pages in ascending order.
	for i := VPN(0); i < pages; i++ {
		f, p, ok := space.Lookup(base + i)
		me, mok := model[base+i]
		if f != me.frame || p != me.prot || ok != mok {
			t.Fatalf("page %d: space (%v,%v,%v) vs model (%v,%v,%v)", i, f, p, ok, me.frame, me.prot, mok)
		}
	}
	var visited []VPN
	space.Runs(0, limitPages, func(start VPN, frames []phys.FrameID, p Prot) bool {
		for i, f := range frames {
			v := start + VPN(i)
			if me := model[v]; f != me.frame || p != me.prot {
				t.Fatalf("Runs page %#x = (%v,%v), model (%v,%v)", v, f, p, me.frame, me.prot)
			}
			visited = append(visited, v)
		}
		return true
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

// TestPooledNodesComeBackEmpty fills an address space, releases it, and
// checks that the address space built next from the same pool maps nothing
// of the old one.
func TestPooledNodesComeBackEmpty(t *testing.T) {
	spots := []VPN{16, 1<<12 - 2, 1<<24 - 2}
	var pages []VPN
	for _, v := range spots {
		pages = append(pages, v, v+1, v+2, v+3)
	}
	for round := 0; round < 8; round++ {
		old := NewSpace()
		for _, v := range pages {
			mapPage(t, old, v, phys.FrameID(v), ProtRW)
		}
		old.Release()

		s := NewSpace()
		mapPage(t, s, pages[1], 9, ProtRW)
		for _, v := range append(pages[:1:1], pages[2:]...) {
			if _, _, ok := s.Lookup(v); ok {
				t.Fatalf("round %d: a pooled node still maps %#x", round, v)
			}
		}
	}
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

// BenchmarkTranslate isolates the walk a TLB miss pays: Lookup, one
// RangeMap search, over 4,096 mappings of 16 pages each, without the TLB,
// cache and meter work of the full MMU access path. Successive lookups are
// 17 pages apart, so each lands in a different mapping than the last and
// the range map's one-entry memo never serves it.
func BenchmarkTranslate(b *testing.B) {
	s := NewSpace()
	const pages, per = 65536, 16
	vpn, err := s.ReservePages(pages)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]phys.FrameID, pages)
	for i := range frames {
		frames[i] = phys.FrameID(i % 512)
	}
	for m := 0; m < pages; m += per {
		if err := s.Map(vpn+VPN(m), frames[m:m+per], ProtRW); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		f, _, ok := s.Lookup(vpn + VPN(uint64(i*17)%pages))
		if !ok {
			b.Fatal("lookup miss")
		}
		sink += uint64(f)
	}
	_ = sink
}
