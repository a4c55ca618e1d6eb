package core

import (
	"errors"
	"testing"

	"repro/internal/sim/vm"
)

// TestPoolShadowPagesReused is the Insight 2 end-to-end test: with pool
// allocation, repeated create/use/destroy cycles (the paper's f() example)
// reuse virtual pages instead of growing the address space.
func TestPoolShadowPagesReused(t *testing.T) {
	f := newFixture(t, Config{})

	cycle := func() {
		p := f.rt.Init("PP", 32)
		var addrs []vm.Addr
		for i := 0; i < 20; i++ {
			a, err := f.rm.Alloc(p, p, 32, "g")
			if err != nil {
				t.Fatalf("pool alloc: %v", err)
			}
			addrs = append(addrs, a)
		}
		for _, a := range addrs[1:] { // free_all_but_head
			if err := f.rm.Free(p, a, "free_all_but_head"); err != nil {
				t.Fatalf("pool free: %v", err)
			}
		}
		f.rm.OnPoolDestroy(p)
		if err := p.Destroy(); err != nil {
			t.Fatalf("Destroy: %v", err)
		}
	}

	for i := 0; i < 3; i++ { // warm up the shared free list
		cycle()
	}
	reserved := f.proc.Space().ReservedPages()
	for i := 0; i < 50; i++ {
		cycle()
	}
	grown := f.proc.Space().ReservedPages() - reserved
	if grown != 0 {
		t.Fatalf("pool cycles still consumed %d fresh pages; Insight 2 broken", grown)
	}
}

func TestPoolDanglingDetectedBeforeDestroy(t *testing.T) {
	// The running example: p->next->val is accessed after
	// free_all_but_head but before pooldestroy — must trap.
	f := newFixture(t, Config{})
	p := f.rt.Init("PP", 32)
	head, err := f.rm.Alloc(p, p, 32, "list")
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	second, err := f.rm.Alloc(p, p, 32, "list")
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	// head->next = second
	if err := f.write(head+8, second); err != nil {
		t.Fatalf("link: %v", err)
	}
	if err := f.rm.Free(p, second, "free_all_but_head"); err != nil {
		t.Fatalf("free: %v", err)
	}

	// p->next->val
	next, err := f.proc.MMU().ReadWord(head+8, 8)
	if err != nil {
		t.Fatalf("read head->next: %v", err)
	}
	useErr := f.read(next)
	var de *DanglingError
	if !errors.As(useErr, &de) {
		t.Fatalf("p->next->val should be detected, got %v", useErr)
	}
	if de.Object.FreeSite != "free_all_but_head" {
		t.Fatalf("wrong provenance: %+v", de.Object)
	}
}

func TestOnPoolDestroyRetiresRecords(t *testing.T) {
	f := newFixture(t, Config{})
	p := f.rt.Init("PP", 32)
	a, err := f.rm.Alloc(p, p, 32, "x")
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := f.rm.Free(p, a, "y"); err != nil {
		t.Fatalf("free: %v", err)
	}
	obj := f.rm.ObjectAt(a)
	if obj == nil || obj.State != StateFreed {
		t.Fatalf("pre-destroy object state: %+v", obj)
	}
	f.rm.OnPoolDestroy(p)
	if err := p.Destroy(); err != nil {
		t.Fatalf("Destroy: %v", err)
	}
	if obj.State != StateRecycled {
		t.Fatalf("object state after pool destroy = %v, want recycled", obj.State)
	}
	if f.rm.ObjectAt(a) != nil {
		t.Fatal("stale object record after pool destroy")
	}
}

func TestPoolDestroyPhysicalNeutrality(t *testing.T) {
	// Pool create/destroy cycles must not leak frames: destroyed pools'
	// pages sit on the shared free list and are refreshed on reuse.
	f := newFixture(t, Config{})
	cycle := func() {
		p := f.rt.Init("PP", 64)
		for i := 0; i < 30; i++ {
			if _, err := f.rm.Alloc(p, p, 64, "x"); err != nil {
				t.Fatalf("alloc: %v", err)
			}
		}
		f.rm.OnPoolDestroy(p)
		if err := p.Destroy(); err != nil {
			t.Fatalf("destroy: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	frames := f.proc.System().PhysMemory().InUse()
	for i := 0; i < 30; i++ {
		cycle()
	}
	if got := f.proc.System().PhysMemory().InUse(); got > frames {
		t.Fatalf("pool cycles grew physical memory: %d -> %d", frames, got)
	}
}

func TestMixedPoolsIndependent(t *testing.T) {
	// Objects in different pools get independent protection.
	f := newFixture(t, Config{})
	p1 := f.rt.Init("P1", 32)
	p2 := f.rt.Init("P2", 32)
	a, err := f.rm.Alloc(p1, p1, 32, "a")
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	b, err := f.rm.Alloc(p2, p2, 32, "b")
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := f.rm.Free(p1, a, "fa"); err != nil {
		t.Fatalf("free: %v", err)
	}
	if err := f.write(b, 1); err != nil {
		t.Fatalf("pool-2 object affected by pool-1 free: %v", err)
	}
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("pool-1 dangling not detected: %v", err)
	}
}
