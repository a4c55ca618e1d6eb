package core

import (
	"errors"
	"testing"
	"time"
)

func TestExhaustionTimePaperScenario(t *testing.T) {
	d := PaperExhaustionScenario()
	// "at least 9 hours" for 2^47 bytes at one 4 KB page per microsecond.
	if d < 9*time.Hour || d > 10*time.Hour {
		t.Errorf("paper scenario = %v, want ~9.5h", d)
	}
}

func TestExhaustionTimeEdgeCases(t *testing.T) {
	// Zero defaults resolve to the simulated machine's geometry.
	if got, want := ExhaustionTime(0, 0, 1e6), PaperExhaustionScenario(); got != want {
		t.Errorf("defaulted args = %v, want %v", got, want)
	}
	// A non-consuming program never exhausts.
	if got := ExhaustionTime(47, 4096, 0); got != time.Duration(1<<63-1) {
		t.Errorf("zero rate = %v, want max duration", got)
	}
	// Huge spaces saturate instead of overflowing.
	if got := ExhaustionTime(63, 1, 1e-12); got != time.Duration(1<<63-1) {
		t.Errorf("slow consumption of a 63-bit space = %v, want max duration", got)
	}
	// Smaller spaces exhaust proportionally faster.
	if a, b := ExhaustionTime(40, 4096, 1e6), ExhaustionTime(41, 4096, 1e6); b != 2*a {
		t.Errorf("doubling the space: %v -> %v, want exact doubling", a, b)
	}
}

// churn allocates and frees count objects round after round, returning the
// first allocation error.
func churn(f *fixture, rounds, count int) error {
	for r := 0; r < rounds; r++ {
		var addrs []uint64
		for i := 0; i < count; i++ {
			a, err := f.rm.Alloc(HeapAllocator{f.heap}, nil, 64, "churn.c:1")
			if err != nil {
				return err
			}
			addrs = append(addrs, a)
		}
		for _, a := range addrs {
			if err := f.rm.Free(HeapAllocator{f.heap}, a, "churn.c:2"); err != nil {
				return err
			}
		}
	}
	return nil
}

// exhaustSpec imposes a VA budget on fresh mremap reservations tight enough
// that sustained allocation must recycle: the fixed process mappings are 320
// pages (64 globals + 256 stack), leaving ~40 pages of headroom for the heap
// arena and fresh shadow pages.
const exhaustSpec = "seed=0;mremap:vabudget=360"

// TestOnExhaustionRecyclesUnderVABudget: §3.4's first policy under injected
// VA exhaustion — allocation churn far past the budget keeps succeeding by
// recycling freed shadow pages, with zero degradation and detection intact.
func TestOnExhaustionRecyclesUnderVABudget(t *testing.T) {
	f := newFaultFixture(t, Config{Policy: ReusePolicy{Kind: PolicyOnExhaustion}}, exhaustSpec)
	if err := churn(f, 30, 8); err != nil {
		t.Fatalf("churn under VA budget: %v", err)
	}
	st := f.rm.Stats()
	if st.RecycledPages == 0 {
		t.Error("budget never forced recycling (test not exercising exhaustion)")
	}
	if st.DegradedAllocs != 0 {
		t.Errorf("DegradedAllocs = %d, want 0 (recycling must beat degradation)", st.DegradedAllocs)
	}
	if st.Allocs != 240 || st.Frees != 240 {
		t.Errorf("allocs/frees = %d/%d, want 240/240", st.Allocs, st.Frees)
	}
	// Detection guarantee intact for current objects: a fresh use-after-free
	// still traps even though its shadow pages may themselves be recycled VA.
	a := f.alloc(t, 64)
	f.free(t, a)
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("read after free under reuse = %v, want DanglingError", err)
	}
	health(t, f)
}

// TestIntervalRecyclesUnderVABudget: the interval policy likewise absorbs the
// budget (reclaiming every 16 allocations) without ever degrading.
func TestIntervalRecyclesUnderVABudget(t *testing.T) {
	f := newFaultFixture(t, Config{Policy: ReusePolicy{Kind: PolicyInterval, Interval: 16}}, exhaustSpec)
	if err := churn(f, 30, 8); err != nil {
		t.Fatalf("churn under VA budget: %v", err)
	}
	st := f.rm.Stats()
	if st.RecycledPages == 0 {
		t.Error("interval policy never recycled under budget")
	}
	if st.DegradedAllocs != 0 {
		t.Errorf("DegradedAllocs = %d, want 0", st.DegradedAllocs)
	}
	a := f.alloc(t, 64)
	f.free(t, a)
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("read after free under reuse = %v, want DanglingError", err)
	}
	health(t, f)
}

// TestNeverPolicyDegradesUnderVABudget: PolicyNever refuses to recycle, so
// once the budget bites, allocations degrade to canonical addresses — the
// availability-over-coverage trade, never a failure.
func TestNeverPolicyDegradesUnderVABudget(t *testing.T) {
	f := newFaultFixture(t, Config{}, exhaustSpec)
	if err := churn(f, 30, 8); err != nil {
		t.Fatalf("churn under VA budget with PolicyNever: %v", err)
	}
	st := f.rm.Stats()
	if st.RecycledPages != 0 {
		t.Errorf("RecycledPages = %d, want 0 under PolicyNever", st.RecycledPages)
	}
	if st.DegradedAllocs == 0 {
		t.Error("budget never forced degradation under PolicyNever")
	}
	if st.Allocs+st.DegradedAllocs != 240 {
		t.Errorf("Allocs+DegradedAllocs = %d, want 240", st.Allocs+st.DegradedAllocs)
	}
	health(t, f)
}
