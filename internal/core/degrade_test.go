package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/heap"
	"repro/internal/pool"
	"repro/internal/sim/kernel"
)

// newFaultFixture builds a fixture whose kernel injects faults per spec.
func newFaultFixture(t *testing.T, cfg Config, spec string) *fixture {
	t.Helper()
	sched, err := kernel.ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Faults = &sched
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

// health fails the test on any invariant violation.
func health(t *testing.T, f *fixture) {
	t.Helper()
	if err := f.rm.HealthCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestTransientRetrySucceeds: a bounded burst of transient mremap failures
// is absorbed by the retry ladder — full protection, no degradation.
func TestTransientRetrySucceeds(t *testing.T) {
	f := newFaultFixture(t, Config{}, "seed=1;mremap:times=2")
	a := f.alloc(t, 64)
	st := f.rm.Stats()
	if st.TransientRetries != 2 {
		t.Errorf("TransientRetries = %d, want 2", st.TransientRetries)
	}
	if st.DegradedAllocs != 0 {
		t.Errorf("DegradedAllocs = %d, want 0", st.DegradedAllocs)
	}
	// The object is fully protected: use-after-free still traps.
	f.free(t, a)
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("read after free = %v, want DanglingError", err)
	}
	health(t, f)
}

// TestRetryChargesBackoff: the retry ladder is not free — it shows up on the
// cycle meter.
func TestRetryChargesBackoff(t *testing.T) {
	f := newFaultFixture(t, Config{}, "seed=1;mremap:times=2")
	before := f.proc.Meter().Cycles()
	f.alloc(t, 64)
	charged := f.proc.Meter().Cycles() - before
	rc := DefaultRetryConfig()
	minBackoff := rc.BackoffCycles + rc.BackoffCycles<<1
	if charged < minBackoff {
		t.Errorf("alloc with 2 retries charged %d cycles, want >= %d backoff", charged, minBackoff)
	}
}

// TestPersistentAllocDegrades: when mremap keeps failing past the retry
// budget, the allocation falls back to the unprotected canonical address
// instead of failing the request.
func TestPersistentAllocDegrades(t *testing.T) {
	f := newFaultFixture(t, Config{}, "seed=1;mremap:every=1")
	a, err := f.rm.Alloc(HeapAllocator{f.heap}, nil, 64, "test.c:1")
	if err != nil {
		t.Fatalf("Alloc under persistent mremap failure: %v", err)
	}
	st := f.rm.Stats()
	if st.DegradedAllocs != 1 {
		t.Errorf("DegradedAllocs = %d, want 1", st.DegradedAllocs)
	}
	if st.Allocs != 0 {
		t.Errorf("Allocs = %d, want 0 (degraded allocs counted separately)", st.Allocs)
	}
	// The memory is usable (it is exactly what native malloc would give).
	if err := f.write(a, 42); err != nil {
		t.Fatalf("write to degraded alloc: %v", err)
	}
	if err := f.read(a); err != nil {
		t.Fatalf("read of degraded alloc: %v", err)
	}
	// Free takes the fallback path straight to the allocator.
	f.free(t, a)
	st = f.rm.Stats()
	if st.DegradedFrees != 1 {
		t.Errorf("DegradedFrees = %d, want 1", st.DegradedFrees)
	}
	if st.Frees != 0 {
		t.Errorf("Frees = %d, want 0", st.Frees)
	}
	// No detection for this object — that is the documented trade.
	if err := f.read(a); err != nil {
		t.Fatalf("read after degraded free should not trap, got %v", err)
	}
	health(t, f)
}

// TestUnprotectedFreeDegrades: a persistent mprotect failure at free time
// narrows detection (the object goes unprotected) but never fails the free.
func TestUnprotectedFreeDegrades(t *testing.T) {
	f := newFaultFixture(t, Config{}, "seed=1;mprotect:every=1")
	a := f.alloc(t, 64)
	f.free(t, a)
	st := f.rm.Stats()
	if st.UnprotectedFrees != 1 {
		t.Errorf("UnprotectedFrees = %d, want 1", st.UnprotectedFrees)
	}
	if st.Frees != 1 {
		t.Errorf("Frees = %d, want 1", st.Frees)
	}
	if st.ShadowPagesFreed != 0 {
		t.Errorf("ShadowPagesFreed = %d, want 0 (pages left unprotected)", st.ShadowPagesFreed)
	}
	// The stale pointer no longer traps — degraded, not corrupted.
	if err := f.read(a); err != nil {
		t.Fatalf("read through unprotected stale pointer: %v", err)
	}
	health(t, f)
}

// TestGCSkipsUnprotectedFrees is the double-retire regression test: objects
// whose free-time mprotect failed for good were already retired by the
// unprotected-free path, so the conservative collector must not recycle
// them again. Their pages are still mapped RW; recycling them would hand
// out accessible pages and drive ShadowPagesFreed below zero.
func TestGCSkipsUnprotectedFrees(t *testing.T) {
	f := newFaultFixture(t, Config{Policy: ReusePolicy{Kind: PolicyGC, Interval: 1 << 30}}, "seed=1;mprotect:every=1")
	a, b := f.alloc(t, 64), f.alloc(t, 64)
	objs := []*Object{f.rm.ObjectAt(a), f.rm.ObjectAt(b)}
	f.free(t, a)
	f.free(t, b)
	if got := f.rm.Stats().UnprotectedFrees; got != 2 {
		t.Fatalf("UnprotectedFrees = %d, want 2", got)
	}
	if pages := f.rm.CollectGarbage(); pages != 0 {
		t.Errorf("collector recycled %d pages of unprotected objects", pages)
	}
	health(t, f)
	for _, obj := range objs {
		if obj.State != StateRecycled || obj.RecycledBy != RecycledByUnprotected {
			t.Errorf("object seq %d: %s by %s, want recycled by unprotected", obj.AllocSeq, obj.State, obj.RecycledBy)
		}
	}
	if st := f.rm.Stats(); st.RecycledPages != 0 || len(f.rm.RecycledRuns()) != 0 {
		t.Errorf("recycled pages %d, runs %v; want none", st.RecycledPages, f.rm.RecycledRuns())
	}
	if log := f.rm.GCCycleLog(); len(log) != 1 || log[0].ObjectsRecycled != 0 {
		t.Errorf("GC cycle log = %+v, want one cycle recycling nothing", log)
	}
}

// TestBatchedFlushDegrades: a persistent failure of the batched multi-run
// mprotect degrades the whole batch to unprotected frees.
func TestBatchedFlushDegrades(t *testing.T) {
	f := newFaultFixture(t, Config{}, "seed=1;mprotect-runs:every=1")
	f.rm.EnableBatchedProtect(4)
	var addrs []uint64 // vm.Addr is an alias of uint64
	for i := 0; i < 4; i++ {
		addrs = append(addrs, uint64(f.alloc(t, 64)))
	}
	for _, a := range addrs {
		f.free(t, a)
	}
	st := f.rm.Stats()
	if st.UnprotectedFrees != 4 {
		t.Errorf("UnprotectedFrees = %d, want 4", st.UnprotectedFrees)
	}
	if st.Frees != 4 {
		t.Errorf("Frees = %d, want 4", st.Frees)
	}
	if f.rm.PendingProtect() != 0 {
		t.Errorf("PendingProtect = %d after failed flush", f.rm.PendingProtect())
	}
	health(t, f)
}

// TestDegradedPoolAllocRetiredOnDestroy: degraded pool allocations are
// forgotten at pool destroy, so recycled addresses cannot alias stale
// degraded records.
func TestDegradedPoolAllocRetiredOnDestroy(t *testing.T) {
	f := newFaultFixture(t, Config{}, "seed=1;mremap:every=1")
	p := f.rt.Init("PP", 16)
	a, err := f.rm.Alloc(p, p, 16, "test.c:1")
	if err != nil {
		t.Fatal(err)
	}
	if f.rm.Stats().DegradedAllocs != 1 {
		t.Fatalf("DegradedAllocs = %d, want 1", f.rm.Stats().DegradedAllocs)
	}
	_ = a
	f.rm.OnPoolDestroy(p)
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
	if len(f.rm.canon) != 0 {
		t.Errorf("degraded records survive pool destroy: %v", f.rm.canon)
	}
	health(t, f)
}

// TestHealthCheckCatchesCorruption: the audit actually fires on broken
// invariants (guards against a health check that always passes).
func TestHealthCheckCatchesCorruption(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 64)
	if err := f.rm.HealthCheck(); err != nil {
		t.Fatalf("healthy remapper reported: %v", err)
	}
	f.rm.stats.ShadowPagesLive += 7
	if err := f.rm.HealthCheck(); err == nil {
		t.Error("corrupted live-page counter passed the health check")
	}
	f.rm.stats.ShadowPagesLive -= 7
	// A canonical record on a live object's shadow page would make Free
	// forward the shadow pointer to the allocator.
	f.rm.canon[a] = canonDegraded
	if err := f.rm.HealthCheck(); err == nil || !strings.Contains(err.Error(), "canonical record") {
		t.Errorf("canonical record on a shadow page passed the health check: %v", err)
	}
}

// TestFaultFreeScheduleIsInert: a schedule with rules that never fire leaves
// behaviour and counters identical to no schedule at all.
func TestFaultFreeScheduleIsInert(t *testing.T) {
	plain := newFixture(t, Config{})
	faulted := newFaultFixture(t, Config{}, "seed=99;mremap:after=1000000,times=1")
	for _, f := range []*fixture{plain, faulted} {
		a := f.alloc(t, 64)
		f.free(t, a)
	}
	ps, fs := plain.rm.Stats(), faulted.rm.Stats()
	if ps != fs {
		t.Errorf("stats diverge under inert schedule:\nplain   %+v\nfaulted %+v", ps, fs)
	}
	pc := plain.proc.Meter().Cycles()
	fc := faulted.proc.Meter().Cycles()
	if pc != fc {
		t.Errorf("cycles diverge under inert schedule: %d vs %d", pc, fc)
	}
}
