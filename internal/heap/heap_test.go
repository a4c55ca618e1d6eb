package heap

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

func newHeap(t *testing.T, opts ...Option) (*Heap, *kernel.Process) {
	t.Helper()
	cfg := kernel.DefaultConfig()
	sys := kernel.NewSystem(cfg)
	p, err := kernel.NewProcess(sys, cfg)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	return New(p, opts...), p
}

func TestMallocWriteRead(t *testing.T) {
	h, p := newHeap(t)
	a, err := h.Malloc(64)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	for i := uint64(0); i < 64; i += 8 {
		if err := p.MMU().WriteWord(a+i, 8, i); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i := uint64(0); i < 64; i += 8 {
		v, err := p.MMU().ReadWord(a+i, 8)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if v != i {
			t.Fatalf("at +%d: got %d", i, v)
		}
	}
}

func TestMallocAlignment(t *testing.T) {
	h, _ := newHeap(t)
	for _, size := range []uint64{1, 7, 8, 15, 16, 100, 4096, 10000} {
		a, err := h.Malloc(size)
		if err != nil {
			t.Fatalf("Malloc(%d): %v", size, err)
		}
		if a%8 != 0 {
			t.Fatalf("Malloc(%d) = %#x, not 8-aligned", size, a)
		}
	}
}

func TestFreeReusesMemory(t *testing.T) {
	h, _ := newHeap(t)
	a, err := h.Malloc(32)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := h.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	b, err := h.Malloc(32)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if b != a {
		t.Fatalf("same-size malloc after free did not reuse: %#x then %#x", a, b)
	}
}

func TestSizeOf(t *testing.T) {
	h, _ := newHeap(t)
	a, err := h.Malloc(100)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	size, err := h.SizeOf(a)
	if err != nil {
		t.Fatalf("SizeOf: %v", err)
	}
	if size < 100 || size > 128 {
		t.Fatalf("SizeOf = %d, want 100..128", size)
	}
	if err := h.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if _, err := h.SizeOf(a); err == nil {
		t.Fatal("SizeOf of freed chunk should error")
	}
}

func TestDoubleFree(t *testing.T) {
	h, _ := newHeap(t)
	a, err := h.Malloc(16)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := h.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := h.Free(a); err == nil {
		t.Fatal("allocator-level double free not detected")
	}
}

func TestInvalidFree(t *testing.T) {
	h, _ := newHeap(t)
	if err := h.Free(0x123456); err == nil {
		t.Fatal("invalid free not detected")
	}
}

func TestLargeAllocation(t *testing.T) {
	h, p := newHeap(t)
	a, err := h.Malloc(3 * vm.PageSize)
	if err != nil {
		t.Fatalf("Malloc(3 pages): %v", err)
	}
	end := a + 3*vm.PageSize - 8
	if err := p.MMU().WriteWord(end, 8, 9); err != nil {
		t.Fatalf("write at end of large chunk: %v", err)
	}
	if err := h.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	// A second large malloc should reuse the freed chunk.
	b, err := h.Malloc(3 * vm.PageSize)
	if err != nil {
		t.Fatalf("second large Malloc: %v", err)
	}
	if b != a {
		t.Fatalf("large chunk not reused: %#x then %#x", a, b)
	}
}

// TestMallocRejectsWrappingSizes: a request whose page rounding would wrap
// past 2^64 used to round down to a tiny or zero-page chunk and succeed. It
// must fail instead, leaving the heap untouched; the largest non-wrapping
// size fails only because the address space cannot hold it.
func TestMallocRejectsWrappingSizes(t *testing.T) {
	h, _ := newHeap(t)
	for _, size := range []uint64{math.MaxUint64, math.MaxUint64 - vm.PageSize + 2, maxSize + 1} {
		if a, err := h.Malloc(size); err == nil {
			t.Errorf("Malloc(%d) = %#x, want an overflow error", size, a)
		}
	}
	if st := h.Stats(); st.Allocs != 0 || st.ArenaBytes != 0 {
		t.Errorf("rejected mallocs changed the heap: %+v", st)
	}
	if _, err := h.Malloc(maxSize); err == nil {
		t.Error("Malloc(maxSize) succeeded in a 2^47-byte address space")
	}
}

func TestZeroSizeMalloc(t *testing.T) {
	h, _ := newHeap(t)
	a, err := h.Malloc(0)
	if err != nil {
		t.Fatalf("Malloc(0): %v", err)
	}
	if a == 0 {
		t.Fatal("Malloc(0) returned NULL")
	}
	if err := h.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
}

func TestStats(t *testing.T) {
	h, _ := newHeap(t)
	a, _ := h.Malloc(64)
	b, _ := h.Malloc(64)
	st := h.Stats()
	if st.Allocs != 2 || st.LiveBytes != 128 {
		t.Fatalf("stats after 2 allocs: %+v", st)
	}
	if err := h.Free(a); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := h.Free(b); err != nil {
		t.Fatalf("Free: %v", err)
	}
	st = h.Stats()
	if st.Frees != 2 || st.LiveBytes != 0 {
		t.Fatalf("stats after frees: %+v", st)
	}
	if st.PeakBytes != 128 {
		t.Fatalf("PeakBytes = %d, want 128", st.PeakBytes)
	}
}

func TestPhysicalReuseBounded(t *testing.T) {
	// The property the paper's scheme depends on: a steady-state
	// alloc/free loop does not grow the arena.
	h, _ := newHeap(t)
	for i := 0; i < 10; i++ {
		a, err := h.Malloc(48)
		if err != nil {
			t.Fatalf("warmup Malloc: %v", err)
		}
		if err := h.Free(a); err != nil {
			t.Fatalf("warmup Free: %v", err)
		}
	}
	arena := h.Stats().ArenaBytes
	for i := 0; i < 10000; i++ {
		a, err := h.Malloc(48)
		if err != nil {
			t.Fatalf("Malloc: %v", err)
		}
		if err := h.Free(a); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
	if got := h.Stats().ArenaBytes; got != arena {
		t.Fatalf("steady-state loop grew arena: %d -> %d bytes", arena, got)
	}
}

func TestNeighborsDontOverlap(t *testing.T) {
	h, p := newHeap(t)
	const n = 50
	addrs := make([]vm.Addr, n)
	for i := range addrs {
		a, err := h.Malloc(24)
		if err != nil {
			t.Fatalf("Malloc: %v", err)
		}
		addrs[i] = a
		if err := p.MMU().WriteWord(a, 8, uint64(i)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := p.MMU().WriteWord(a+16, 8, uint64(i)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, a := range addrs {
		v, err := p.MMU().ReadWord(a, 8)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if v != uint64(i) {
			t.Fatalf("chunk %d clobbered: got %d", i, v)
		}
	}
}

// Property: random alloc/free interleavings never hand out overlapping live
// chunks.
func TestNoOverlapProperty(t *testing.T) {
	type op struct {
		Alloc bool
		Size  uint16
	}
	f := func(ops []op) bool {
		h, _ := newHeap(t)
		type liveChunk struct {
			addr vm.Addr
			size uint64
		}
		var live []liveChunk
		for _, o := range ops {
			if o.Alloc || len(live) == 0 {
				size := uint64(o.Size%2000) + 1
				a, err := h.Malloc(size)
				if err != nil {
					return false
				}
				actual, err := h.SizeOf(a)
				if err != nil {
					return false
				}
				for _, lc := range live {
					if a < lc.addr+lc.size && lc.addr < a+actual {
						t.Logf("overlap: [%#x,+%d) vs [%#x,+%d)", a, actual, lc.addr, lc.size)
						return false
					}
				}
				live = append(live, liveChunk{a, actual})
			} else {
				lc := live[len(live)-1]
				live = live[:len(live)-1]
				if err := h.Free(lc.addr); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
