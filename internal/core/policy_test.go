package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim/vm"
)

func TestIntervalPolicyRecyclesShadowPages(t *testing.T) {
	f := newFixture(t, Config{Policy: ReusePolicy{Kind: PolicyInterval, Interval: 64}})
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
	f := newFixture(t, Config{Policy: ReusePolicy{Kind: PolicyInterval, Interval: 8}})
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
	f := newFixture(t, Config{Policy: ReusePolicy{Kind: PolicyGC, Interval: 1 << 30}})

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

func TestGCRecyclesIntoAllocPath(t *testing.T) {
	f := newFixture(t, Config{Policy: ReusePolicy{Kind: PolicyGC, Interval: 1 << 30}})
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
	// reclamation: the collector scans the stack and globals as roots.
	f := newFixture(t, Config{Policy: ReusePolicy{Kind: PolicyGC, Interval: 1 << 30}})
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
	f := newFixture(t, Config{Policy: ReusePolicy{Kind: PolicyGC, Interval: 1 << 30}})
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

// TestPolicyClockFiresOncePerInterval: the clock fires when Interval
// allocations have elapsed since it last fired, not at every Alloc or Free
// entry that sees a multiple of the interval.
func TestPolicyClockFiresOncePerInterval(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyInterval, PolicyGC} {
		f := newFixture(t, Config{Policy: ReusePolicy{Kind: kind, Interval: 4}})
		var addrs []vm.Addr
		for i := 0; i < 4; i++ {
			addrs = append(addrs, f.alloc(t, 16))
		}
		for _, a := range addrs[:3] {
			f.free(t, a)
		}
		st := f.rm.Stats()
		switch kind {
		case PolicyGC:
			if st.GCRuns != 1 || st.GCScheduled != 1 {
				t.Errorf("gc: GCRuns = %d, GCScheduled = %d after 4 allocs and 3 frees, want 1 and 1", st.GCRuns, st.GCScheduled)
			}
		case PolicyInterval:
			// The one firing, at the first free's entry, found nothing
			// freed yet: the two later frees stay protected.
			if st.RecycledPages != 0 || st.ShadowPagesFreed != 3 {
				t.Errorf("interval: %d freed pages, %d recycled, want 3 and 0", st.ShadowPagesFreed, st.RecycledPages)
			}
			if got := f.rm.reclaimFreed(); got != 3 {
				t.Errorf("interval: %d pages left to reclaim, want 3", got)
			}
		}
	}
}

// FuzzParsePolicySpec checks that a spec ParsePolicySpec accepts and its
// value round-trip exactly: the value's rendering parses back to the same
// value, and renders to itself. The spec arrives in untrusted trace headers
// (!policy).
func FuzzParsePolicySpec(f *testing.F) {
	for _, spec := range []string{
		"never", "on-exhaustion", "interval=32", "gc", "gc=4",
		"gc=16,watermark=32", "gc=8,minfreed=4,cooldown=8", "gc,pooldestroy",
		"gc=0", "interval=0", "gc,watermark", "gc=2,bogus",
		"interval", "interval=8,watermark=3,pooldestroy,minfreed=1,cooldown=2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePolicySpec(spec)
		if err != nil {
			return
		}
		canon := PolicySpecString(p)
		p2, err := ParsePolicySpec(canon)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, canon, err)
		}
		if p2 != p {
			t.Fatalf("%q parses to %+v, renders as %q, which parses to %+v", spec, p, canon, p2)
		}
		if again := PolicySpecString(p2); again != canon {
			t.Fatalf("%q renders as %q, which renders as %q", spec, canon, again)
		}
	})
}
