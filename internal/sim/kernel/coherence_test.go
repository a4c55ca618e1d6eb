package kernel

import (
	"errors"
	"testing"

	"repro/internal/sim/phys"
	"repro/internal/sim/tlb"
	"repro/internal/sim/vm"
)

// TestTLBCoherence is the differential test for the translations the TLB
// caches. It drives a process through random Mmap, MmapFixed, Munmap,
// Mprotect, MprotectRuns, MremapAlias and RemapFixedAlias calls over a few
// dozen pages, interleaved with reads and writes that hit those pages, miss
// them, fault on their protection or land on wild addresses. After every
// step each TLB entry that holds a translation must equal Space.Lookup for
// its page, and every access must succeed or fault exactly as
// vm.CheckAccess says it should of the page's Space.Lookup. The process ends with Exit, after which
// no entry may hold a translation. It runs with unbounded memory, with a
// frame limit that MmapFixed runs into partway through a range, and with
// injected syscall failures.
func TestTLBCoherence(t *testing.T) {
	cases := []struct {
		name      string
		maxFrames uint64
		faults    string
	}{
		{"unbounded", 0, ""},
		{"frame exhaustion", 48, ""},
		{"injected faults", 0, "seed=5;*:prob=0.15"},
		{"exhaustion and faults", 48, "seed=8;mmap:prob=0.1;mremap:every=5;mprotect-runs:every=3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				coherenceRun(t, c.maxFrames, c.faults, seed)
			}
		})
	}
}

// region is a page range a syscall returned, kept as a target for later
// calls and accesses whatever has happened to it since.
type region struct {
	addr vm.Addr
	n    uint64
}

func coherenceRun(t *testing.T, maxFrames uint64, faults string, seed uint64) {
	cfg := DefaultConfig()
	cfg.MaxFrames = maxFrames
	cfg.StackPages, cfg.GlobalPages = 4, 4
	if faults != "" {
		s := mustParse(t, faults)
		cfg.Faults = &s
	}
	p, err := NewProcess(NewSystem(cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	state := seed * 0x9E3779B97F4A7C15
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	gBase, _ := p.GlobalsRange()
	regions := []region{{p.StackBase(), 4}, {gBase, 4}}
	keep := func(addr vm.Addr, n uint64) {
		if len(regions) < 16 {
			regions = append(regions, region{addr, n})
		} else {
			regions[2+next()%14] = region{addr, n}
		}
	}
	// pick returns a sub-range of a random region.
	pick := func() (vm.Addr, uint64) {
		r := regions[next()%uint64(len(regions))]
		first := next() % r.n
		return r.addr + first*vm.PageSize, 1 + next()%(r.n-first)
	}
	prots := []vm.Prot{vm.ProtNone, vm.ProtRead, vm.ProtRW}
	for step := 0; step < 1500; step++ {
		var op string
		switch r := next() % 16; {
		case r < 2:
			op = "mmap"
			n := 1 + next()%6
			if addr, err := p.Mmap(n * vm.PageSize); err == nil {
				keep(addr, n)
			}
		case r == 2:
			op = "mmap-fixed"
			addr, n := pick()
			_ = p.MmapFixed(addr, n)
		case r == 3:
			op = "munmap"
			addr, n := pick()
			_ = p.Munmap(addr, n)
		case r < 6:
			op = "mprotect"
			addr, n := pick()
			_ = p.Mprotect(addr, n, prots[next()%3])
		case r == 6:
			op = "mprotect-runs"
			a1, n1 := pick()
			a2, n2 := pick()
			_ = p.MprotectRuns([][2]uint64{{a1, n1}, {a2, n2}}, prots[next()%3])
		case r == 7:
			op = "mremap"
			addr, n := pick()
			if alias, err := p.MremapAlias(addr, n); err == nil {
				keep(alias, n)
			}
		case r == 8:
			op = "fixed alias"
			dst, n := pick()
			src, m := pick()
			_ = p.RemapFixedAlias(dst, src, min(n, m))
		default:
			op = "access"
			coherentAccess(t, p, step, next, pick)
		}
		checkTLBCoherent(t, p, step, op)
	}
	if err := p.Exit(); err != nil {
		t.Fatalf("seed %d: exit: %v", seed, err)
	}
	checkTLBCoherent(t, p, -1, "exit")
}

// coherentAccess reads or writes one word, at a page of a region or at a
// wild address, and requires the outcome vm.CheckAccess gives on the
// page's Space.Lookup.
func coherentAccess(t *testing.T, p *Process, step int, next func() uint64, pick func() (vm.Addr, uint64)) {
	t.Helper()
	addr, _ := pick()
	switch next() % 8 {
	case 0:
		addr = vm.Addr(next())
	case 1:
		addr = vm.UserAddrLimit + next()%(1<<20)
	}
	addr = vm.PageBase(addr) + next()%(vm.PageSize/8)*8
	kind := vm.AccessRead
	if next()%2 == 0 {
		kind = vm.AccessWrite
	}
	_, prot, mapped := p.Space().Lookup(vm.PageOf(addr))
	want := vm.CheckAccess(addr, kind, prot, mapped)
	var err error
	if kind == vm.AccessRead {
		_, err = p.MMU().ReadWord(addr, 8)
	} else {
		err = p.MMU().WriteWord(addr, 8, next())
	}
	var got *vm.Fault
	if err != nil && !errors.As(err, &got) {
		t.Fatalf("step %d: %v of %#x: %v is not a fault", step, kind, addr, err)
	}
	if (got == nil) != (want == nil) || got != nil && *got != *want {
		t.Fatalf("step %d: %v of %#x: MMU fault %v, address space says %v", step, kind, addr, got, want)
	}
}

// checkTLBCoherent requires every translation either TLB level caches to
// equal the address space's.
func checkTLBCoherent(t *testing.T, p *Process, step int, op string) {
	t.Helper()
	for level, tl := range []*tlb.TLB{p.MMU().TLB1(), p.MMU().TLB2()} {
		tl.Translations(func(v vm.VPN, f phys.FrameID, prot vm.Prot) {
			sf, sprot, ok := p.Space().Lookup(v)
			if !ok || sf != f || sprot != prot {
				t.Fatalf("step %d, after %s: L%d caches page %#x as frame %d %v; the address space has frame %d %v (mapped %v)",
					step, op, level+1, uint64(v)<<vm.PageShift, f, prot, sf, sprot, ok)
			}
		})
	}
}
