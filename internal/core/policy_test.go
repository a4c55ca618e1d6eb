package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim/vm"
)

func TestIntervalPolicyRecyclesShadowPages(t *testing.T) {
	f := newFixture(t, ReusePolicy{Kind: PolicyInterval, Interval: 64})
	before := f.proc.Space().ReservedPages()
	for i := 0; i < 1000; i++ {
		a := f.alloc(t, 16)
		f.free(t, a)
	}
	grown := f.proc.Space().ReservedPages() - before
	// Without recycling this loop consumes >= 1000 fresh pages.
	if grown > 200 {
		t.Fatalf("interval policy ineffective: %d fresh pages for 1000 allocs", grown)
	}
	if f.rm.Stats().RecycledPages == 0 {
		t.Fatal("no pages recycled")
	}
}

func TestIntervalPolicyLosesOldGuaranteeButKeepsDetectionForFresh(t *testing.T) {
	f := newFixture(t, ReusePolicy{Kind: PolicyInterval, Interval: 8})
	stale := f.alloc(t, 16)
	f.free(t, stale)
	// Push past the interval so the stale object's pages are recycled.
	for i := 0; i < 64; i++ {
		a := f.alloc(t, 16)
		f.free(t, a)
	}
	// A *fresh* freed object must still be detected.
	a := f.alloc(t, 16)
	f.free(t, a)
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("fresh dangling use not detected under interval policy: %v", err)
	}
}

func TestGCPolicyKeepsReferencedDanglersTrapping(t *testing.T) {
	// The conservative collector must NOT recycle a freed object's shadow
	// pages while some live object still holds a pointer to it — that
	// pointer can still be dereferenced and must keep trapping.
	f := newFixture(t, ReusePolicy{Kind: PolicyGC, Interval: 1 << 30})

	holder := f.alloc(t, 16) // live object holding the dangling pointer
	victim := f.alloc(t, 16)
	if err := f.write(holder, victim); err != nil {
		t.Fatalf("store pointer: %v", err)
	}
	f.free(t, victim)

	orphan := f.alloc(t, 16) // freed with no remaining references
	f.free(t, orphan)

	recycled := f.rm.CollectGarbage()
	if recycled == 0 {
		t.Fatal("collector recycled nothing; orphan should be reclaimable")
	}

	var de *DanglingError
	if err := f.read(victim); !errors.As(err, &de) {
		t.Fatalf("referenced dangler no longer traps after GC: %v", err)
	}
	if obj := f.rm.ObjectAt(orphan); obj != nil && obj.State == StateFreed {
		t.Fatal("orphan shadow pages were not reclaimed")
	}
}

func TestGCRootsCallback(t *testing.T) {
	// A pointer held in a root range (simulated global) protects the
	// freed object from reclamation.
	var rootAddr vm.Addr
	f := newFixture(t, ReusePolicy{
		Kind:     PolicyGC,
		Interval: 1 << 30,
		Roots: func() [][2]uint64 {
			return [][2]uint64{{rootAddr, rootAddr + 8}}
		},
	})
	g, err := f.proc.AllocGlobal(8)
	if err != nil {
		t.Fatalf("AllocGlobal: %v", err)
	}
	rootAddr = g

	victim := f.alloc(t, 16)
	if err := f.proc.MMU().WriteWord(g, 8, victim); err != nil {
		t.Fatalf("store to global: %v", err)
	}
	f.free(t, victim)
	f.rm.CollectGarbage()

	var de *DanglingError
	if err := f.read(victim); !errors.As(err, &de) {
		t.Fatalf("global-referenced dangler no longer traps after GC: %v", err)
	}
}

func TestGCRecyclesIntoAllocPath(t *testing.T) {
	f := newFixture(t, ReusePolicy{Kind: PolicyGC, Interval: 1 << 30})
	for i := 0; i < 100; i++ {
		a := f.alloc(t, 16)
		f.free(t, a)
	}
	if got := f.rm.CollectGarbage(); got < 100 {
		t.Fatalf("collector reclaimed %d pages, want >= 100", got)
	}
	before := f.proc.Space().ReservedPages()
	for i := 0; i < 50; i++ {
		a := f.alloc(t, 16)
		f.free(t, a)
	}
	grown := f.proc.Space().ReservedPages() - before
	if grown != 0 {
		t.Fatalf("allocations after GC still took %d fresh pages", grown)
	}
	if f.rm.Stats().GCRuns == 0 {
		t.Fatal("GCRuns not counted")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, k := range []PolicyKind{PolicyNever, PolicyOnExhaustion, PolicyInterval, PolicyGC} {
		if k.String() == "" {
			t.Fatalf("empty string for policy %d", k)
		}
	}
	for _, s := range []ObjectState{StateLive, StateFreed, StateRecycled} {
		if s.String() == "" {
			t.Fatalf("empty string for state %d", s)
		}
	}
}

func TestExhaustionCalculation(t *testing.T) {
	// §3.4: "even an extreme program that allocates a new 4K-page-size
	// object every microsecond ... can operate for 9 hours".
	d := PaperExhaustionScenario()
	if d < 9*time.Hour || d > 10*time.Hour {
		t.Fatalf("paper scenario = %v, want between 9h and 10h", d)
	}
	// 32-bit address space at the same rate dies in seconds — why the
	// paper needs 64-bit.
	d32 := ExhaustionTime(31, vm.PageSize, 1e6)
	if d32 > time.Second {
		t.Fatalf("31-bit scenario = %v, want < 1s", d32)
	}
	if ExhaustionTime(0, 0, 0) <= 0 {
		t.Fatal("degenerate input should return a huge duration")
	}
}

func TestGCScansStackAndGlobalsImplicitly(t *testing.T) {
	// A dangling pointer held only in the stack region (where compiled
	// programs keep their locals) must protect the freed object from
	// reclamation even without an explicit Roots callback.
	f := newFixture(t, ReusePolicy{Kind: PolicyGC, Interval: 1 << 30})
	victim := f.alloc(t, 16)
	// Store the stale pointer into the simulated stack.
	slot := f.proc.StackBase() + 128
	if err := f.proc.MMU().WriteWord(slot, 8, victim); err != nil {
		t.Fatalf("stack store: %v", err)
	}
	f.free(t, victim)
	f.rm.CollectGarbage()

	var de *DanglingError
	if err := f.read(victim); !errors.As(err, &de) {
		t.Fatalf("stack-referenced dangler no longer traps after GC: %v", err)
	}

	// Clear the stack slot: now the collector may reclaim it.
	if err := f.proc.MMU().WriteWord(slot, 8, 0); err != nil {
		t.Fatalf("stack clear: %v", err)
	}
	if got := f.rm.CollectGarbage(); got == 0 {
		t.Fatal("unreferenced dangler not reclaimed after root cleared")
	}
}

func TestGCScansGlobalsImplicitly(t *testing.T) {
	f := newFixture(t, ReusePolicy{Kind: PolicyGC, Interval: 1 << 30})
	g, err := f.proc.AllocGlobal(8)
	if err != nil {
		t.Fatalf("AllocGlobal: %v", err)
	}
	victim := f.alloc(t, 16)
	if err := f.proc.MMU().WriteWord(g, 8, victim); err != nil {
		t.Fatalf("global store: %v", err)
	}
	f.free(t, victim)
	f.rm.CollectGarbage()
	var de *DanglingError
	if err := f.read(victim); !errors.As(err, &de) {
		t.Fatalf("global-referenced dangler no longer traps after GC: %v", err)
	}
}

// FuzzParsePolicySpec checks that the rendering of any spec ParsePolicySpec
// accepts is canonical: it parses back, and renders to itself. The spec
// arrives in untrusted trace headers (!policy).
func FuzzParsePolicySpec(f *testing.F) {
	for _, spec := range []string{
		"never", "on-exhaustion", "interval=32", "gc", "gc=4",
		"gc=16,watermark=32", "gc=8,minfreed=4,cooldown=8", "gc,pooldestroy",
		"gc=0", "interval=0", "gc,watermark", "gc=2,bogus",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, s, err := ParsePolicySpec(spec)
		if err != nil {
			return
		}
		canon := PolicySpecString(p, s)
		p2, s2, err := ParsePolicySpec(canon)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, canon, err)
		}
		if again := PolicySpecString(p2, s2); again != canon {
			t.Fatalf("%q renders as %q, which renders as %q", spec, canon, again)
		}
	})
}
