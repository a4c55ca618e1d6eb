package core

import (
	"errors"
	"testing"

	"repro/internal/sim/vm"
)

func newGuardedFixture(t *testing.T) *fixture {
	t.Helper()
	return newFixture(t, Config{Guards: true})
}

func TestOverflowPastPageDetected(t *testing.T) {
	f := newGuardedFixture(t)
	size := uint64(100)
	a := f.alloc(t, size)

	// Writing within the object's page (even past the object, into the
	// padding) stays undetected — page granularity.
	pageEnd := vm.PageBase(a) + vm.PageSize
	if err := f.write(pageEnd-8, 1); err != nil {
		t.Fatalf("same-page overflow should not trap: %v", err)
	}

	// Running off the page hits the guard.
	err := f.write(pageEnd, 0xBAD)
	var oe *OverflowError
	if !errors.As(err, &oe) {
		t.Fatalf("expected OverflowError, got %v", err)
	}
	if oe.Object.ShadowAddr != a {
		t.Fatalf("wrong object: %+v", oe.Object)
	}
	if oe.Offset <= int64(size) {
		t.Fatalf("offset = %d, should be past the object", oe.Offset)
	}
	if f.rm.Stats().OverflowsDetected != 1 {
		t.Fatalf("stats: %+v", f.rm.Stats())
	}
}

func TestGuardOnMultiPageObject(t *testing.T) {
	f := newGuardedFixture(t)
	size := uint64(2*vm.PageSize + 50)
	a := f.alloc(t, size)
	if err := f.write(a+size-8, 1); err != nil {
		t.Fatalf("in-bounds write failed: %v", err)
	}
	end := vm.PageBase(a) + uint64(vm.PageSpan(a, size+8))*vm.PageSize
	var oe *OverflowError
	if err := f.write(end, 1); !errors.As(err, &oe) {
		t.Fatalf("multi-page overflow not caught: %v", err)
	}
}

func TestGuardDoesNotMisfireOnDangling(t *testing.T) {
	// Dangling detection must still classify correctly with guards on.
	f := newGuardedFixture(t)
	a := f.alloc(t, 32)
	f.free(t, a)
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("dangling not detected with guards on: %v", err)
	}
}

func TestGuardPagesNeverMapped(t *testing.T) {
	// Guards cost virtual address space but zero physical frames.
	f := newGuardedFixture(t)
	warm := f.alloc(t, 16)
	_ = warm
	frames := f.proc.System().PhysMemory().InUse()
	for i := 0; i < 100; i++ {
		f.alloc(t, 16)
	}
	// 100 x 24B objects: one slab-arena growth at most, plus zero guard
	// frames.
	if got := f.proc.System().PhysMemory().InUse(); got > frames+16 {
		t.Fatalf("guards consumed frames: %d -> %d", frames, got)
	}
}

func TestUnguardedModeHasNoGuardReports(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 100)
	end := vm.PageBase(a) + vm.PageSize
	err := f.write(end, 1)
	var oe *OverflowError
	if errors.As(err, &oe) {
		t.Fatal("unguarded mode reported an overflow")
	}
	// Without guards the next page may be unmapped (wild fault) or
	// belong to another mapping; either way it is not classified.
}
