package core

import (
	"errors"
	"testing"
)

func newBatchedFixture(t *testing.T, batch int) *fixture {
	t.Helper()
	f := newFixture(t, Config{})
	f.rm.EnableBatchedProtect(batch)
	return f
}

func TestBatchedFreeReducesSyscalls(t *testing.T) {
	measure := func(batch int) uint64 {
		f := newFixture(t, Config{})
		f.rm.EnableBatchedProtect(batch)
		// Warm-up.
		a := f.alloc(t, 16)
		f.free(t, a)
		if err := f.rm.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		before := f.proc.Meter().Syscalls()
		for i := 0; i < 64; i++ {
			p := f.alloc(t, 16)
			f.free(t, p)
		}
		if err := f.rm.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		return f.proc.Meter().Syscalls() - before
	}
	immediate := measure(0)
	batched := measure(16)
	// 64 pairs: immediate = 64 mremap + 64 mprotect; batched = 64 mremap
	// + ~4 batch flushes.
	if batched >= immediate-32 {
		t.Fatalf("batching saved too little: %d vs %d syscalls", batched, immediate)
	}
}

func TestBatchedWindowThenDetection(t *testing.T) {
	f := newBatchedFixture(t, 8)
	a := f.alloc(t, 16)
	f.free(t, a)

	// Within the window the stale access is NOT detected — the
	// documented trade-off.
	if err := f.read(a); err != nil {
		t.Fatalf("expected silent access inside the batch window, got %v", err)
	}
	if f.rm.PendingProtect() != 1 {
		t.Fatalf("pending = %d", f.rm.PendingProtect())
	}

	// After the flush, detection is back.
	if err := f.rm.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("expected detection after flush, got %v", err)
	}
}

func TestBatchAutoFlushesAtSize(t *testing.T) {
	f := newBatchedFixture(t, 4)
	var ptrs []uint64
	for i := 0; i < 4; i++ {
		p := f.alloc(t, 16)
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		f.free(t, p)
	}
	if got := f.rm.PendingProtect(); got != 0 {
		t.Fatalf("batch of 4 should have auto-flushed, pending = %d", got)
	}
	var de *DanglingError
	if err := f.read(ptrs[0]); !errors.As(err, &de) {
		t.Fatalf("detection after auto-flush: %v", err)
	}
}

func TestBatchSkipsRecycledObjects(t *testing.T) {
	// A pool destroyed while frees are pending must not cause the flush
	// to protect pages that have since been recycled.
	f := newBatchedFixture(t, 64)
	p := f.rt.Init("PP", 16)
	a, err := f.rm.Alloc(p, p, 16, "x")
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := f.rm.Free(p, a, "y"); err != nil {
		t.Fatalf("free: %v", err)
	}
	f.rm.OnPoolDestroy(p)
	if err := p.Destroy(); err != nil {
		t.Fatalf("destroy: %v", err)
	}

	// Reuse the pages as a new pool's slab.
	q := f.rt.Init("QQ", 16)
	b, err := f.rm.Alloc(q, q, 16, "x2")
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := f.rm.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// The new object must still be fully accessible.
	if err := f.write(b, 42); err != nil {
		t.Fatalf("flush protected recycled pages: %v", err)
	}
}

func TestBatchSizeOneIsImmediate(t *testing.T) {
	f := newBatchedFixture(t, 1)
	a := f.alloc(t, 16)
	f.free(t, a)
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("batch size 1 should behave immediately: %v", err)
	}
}

func TestBatchedDoubleFreeStillDetected(t *testing.T) {
	// Within the batch window the page is unprotected, so the header
	// read does not trap — the bookkeeping must classify the double free
	// anyway.
	f := newBatchedFixture(t, 32)
	a := f.alloc(t, 16)
	f.free(t, a)
	err := f.rm.Free(HeapAllocator{f.heap}, a, "again")
	var de *DanglingError
	if !errors.As(err, &de) || !de.IsDouble() {
		t.Fatalf("double free in batch window = %v", err)
	}
}
