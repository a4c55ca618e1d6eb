package runtimes

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/minic/ir"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

func newProc(t *testing.T) *kernel.Process {
	t.Helper()
	cfg := kernel.DefaultConfig()
	sys := kernel.NewSystem(cfg)
	p, err := kernel.NewProcess(sys, cfg)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	return p
}

func TestNativeMallocFree(t *testing.T) {
	proc := newProc(t)
	rt := NewNative(proc)
	a, err := rt.Malloc(64, "s")
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := proc.MMU().WriteWord(a, 8, 5); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := rt.Free(a, "s"); err != nil {
		t.Fatalf("Free: %v", err)
	}
	// Native has no detection: access after free still works (possibly
	// stale), and faults pass through Explain unchanged.
	if _, err := proc.MMU().ReadWord(a, 8); err != nil {
		t.Fatalf("native UAF should be silent: %v", err)
	}
	fault := &vm.Fault{Addr: 1, Access: vm.AccessRead, Reason: vm.FaultUnmapped}
	if got := rt.Explain(fault, "s"); got != error(fault) {
		t.Fatalf("Explain rewrote the fault: %v", got)
	}
	addr, err := rt.CheckAccess(a, 8, false, "s")
	if err != nil || addr != a {
		t.Fatalf("CheckAccess = %#x, %v", addr, err)
	}
}

func TestNativePoolLifecycle(t *testing.T) {
	proc := newProc(t)
	rt := NewNative(proc)
	h, err := rt.PoolInit(ir.PoolDecl{Name: "p", ElemSize: 16})
	if err != nil {
		t.Fatalf("PoolInit: %v", err)
	}
	a, err := rt.PoolAlloc(h, 16, "s")
	if err != nil {
		t.Fatalf("PoolAlloc: %v", err)
	}
	if err := rt.PoolFree(h, a, "s"); err != nil {
		t.Fatalf("PoolFree: %v", err)
	}
	if err := rt.PoolDestroy(h); err != nil {
		t.Fatalf("PoolDestroy: %v", err)
	}
	if _, err := rt.PoolAlloc(h, 16, "s"); err == nil {
		t.Fatal("alloc from destroyed handle should fail")
	}
	if err := rt.PoolDestroy(99); err == nil {
		t.Fatal("bad handle should fail")
	}
}

func TestPADummyChargesSyscalls(t *testing.T) {
	proc := newProc(t)
	rt := NewPADummy(proc)
	h, err := rt.PoolInit(ir.PoolDecl{Name: "p"})
	if err != nil {
		t.Fatalf("PoolInit: %v", err)
	}
	// Warm the pool so only the dummy syscalls remain.
	a, err := rt.PoolAlloc(h, 16, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.PoolFree(h, a, "s"); err != nil {
		t.Fatal(err)
	}

	before := proc.Meter().Syscalls()
	b, err := rt.PoolAlloc(h, 16, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.PoolFree(h, b, "s"); err != nil {
		t.Fatal(err)
	}
	if got := proc.Meter().Syscalls() - before; got != 2 {
		t.Fatalf("dummy pair charged %d syscalls, want 2", got)
	}
}

func TestShadowDetectsThroughPoolPath(t *testing.T) {
	proc := newProc(t)
	rt := NewShadow(proc, core.Config{})
	h, err := rt.PoolInit(ir.PoolDecl{Name: "p", ElemSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rt.PoolAlloc(h, 32, "alloc-site")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.PoolFree(h, a, "free-site"); err != nil {
		t.Fatal(err)
	}
	_, err = proc.MMU().ReadWord(a, 8)
	var fault *vm.Fault
	if !errors.As(err, &fault) {
		t.Fatalf("expected fault, got %v", err)
	}
	var de *core.DanglingError
	if err := rt.Explain(fault, "use-site"); !errors.As(err, &de) {
		t.Fatalf("Explain = %v", err)
	}
	if de.Object.AllocSite != "alloc-site" || de.Object.FreeSite != "free-site" {
		t.Fatalf("provenance: %+v", de.Object)
	}
}

func TestShadowPoolDestroyRetiresRecords(t *testing.T) {
	proc := newProc(t)
	rt := NewShadow(proc, core.Config{})
	h, err := rt.PoolInit(ir.PoolDecl{Name: "p"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := rt.PoolAlloc(h, 16, "s")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.PoolDestroy(h); err != nil {
		t.Fatalf("PoolDestroy: %v", err)
	}
	if obj := rt.Remapper().ObjectAt(a); obj != nil {
		t.Fatalf("object record survived pool destroy: %+v", obj)
	}
	if err := rt.PoolDestroy(h); err == nil {
		t.Fatal("double destroy through runtime should fail")
	}
}

func TestShadowInterpositionMode(t *testing.T) {
	proc := newProc(t)
	rt := NewShadow(proc, core.Config{})
	a, err := rt.Malloc(24, "m")
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Free(a, "f"); err != nil {
		t.Fatal(err)
	}
	var de *core.DanglingError
	if err := rt.Free(a, "f2"); !errors.As(err, &de) || !de.IsDouble() {
		t.Fatalf("double free via runtime = %v", err)
	}
}
