package phys

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocFrameZeroed(t *testing.T) {
	m := NewMemory(0)
	id, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("AllocFrame: %v", err)
	}
	m.FrameForWrite(id)[123] = 0xAB
	if err := m.FreeFrame(id); err != nil {
		t.Fatalf("FreeFrame: %v", err)
	}
	id2, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("AllocFrame (reuse): %v", err)
	}
	if id2 != id {
		t.Fatalf("expected frame reuse, got %d then %d", id, id2)
	}
	if got := m.Frame(id2)[123]; got != 0 {
		t.Fatalf("recycled frame not zeroed: byte = %#x", got)
	}
}

// TestDemandZero checks that a frame never written reads as the shared zero
// page without a backing array of its own, and that the first write gives it
// one, leaving the zero page zero.
func TestDemandZero(t *testing.T) {
	m := NewMemory(0)
	a, _ := m.AllocFrame()
	b, _ := m.AllocFrame()
	if m.Frame(a) != m.Frame(b) || m.Frame(a) != &zeroPage {
		t.Fatal("unwritten frames do not share the zero page")
	}
	m.FrameForWrite(a)[7] = 1
	if m.Frame(a) == &zeroPage || m.Frame(a)[7] != 1 {
		t.Fatal("written frame still reads the zero page")
	}
	if m.Frame(b)[7] != 0 || zeroPage != ([PageSize]byte{}) {
		t.Fatal("a write through FrameForWrite reached the zero page")
	}
}

// TestPooledFramesComeBackZeroed dirties every byte of frames that Release
// and FreeFrame hand to the pool, then checks that every frame a new Memory
// takes from it by a first write starts zeroed.
func TestPooledFramesComeBackZeroed(t *testing.T) {
	dirty := func(m *Memory, n int) []FrameID {
		var ids []FrameID
		for i := 0; i < n; i++ {
			id, err := m.AllocFrame()
			if err != nil {
				t.Fatal(err)
			}
			f := m.FrameForWrite(id)
			for j := range f {
				f[j] = 0xFF
			}
			ids = append(ids, id)
		}
		return ids
	}
	for round := 0; round < 8; round++ {
		m := NewMemory(0)
		ids := dirty(m, 16)
		for _, id := range ids[:8] {
			if err := m.FreeFrame(id); err != nil {
				t.Fatal(err)
			}
		}
		m.Release()

		fresh := NewMemory(0)
		for i := 0; i < 16; i++ {
			id, _ := fresh.AllocFrame()
			if *fresh.FrameForWrite(id) != ([PageSize]byte{}) {
				t.Fatalf("round %d: a pooled frame came back dirty", round)
			}
		}
		fresh.Release()
	}
}

func TestFrameBudget(t *testing.T) {
	m := NewMemory(2)
	if _, err := m.AllocFrame(); err != nil {
		t.Fatalf("alloc 1: %v", err)
	}
	f2, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("alloc 2: %v", err)
	}
	if _, err := m.AllocFrame(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if err := m.FreeFrame(f2); err != nil {
		t.Fatalf("free: %v", err)
	}
	if _, err := m.AllocFrame(); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	m := NewMemory(0)
	id, err := m.AllocFrame()
	if err != nil {
		t.Fatalf("AllocFrame: %v", err)
	}
	if err := m.FreeFrame(id); err != nil {
		t.Fatalf("first free: %v", err)
	}
	if err := m.FreeFrame(id); err == nil {
		t.Fatal("double free not detected")
	}
}

func TestFreeInvalidFrame(t *testing.T) {
	m := NewMemory(0)
	if err := m.FreeFrame(42); err == nil {
		t.Fatal("free of never-allocated frame not detected")
	}
}

func TestPeakInUse(t *testing.T) {
	m := NewMemory(0)
	var ids []FrameID
	for i := 0; i < 5; i++ {
		id, err := m.AllocFrame()
		if err != nil {
			t.Fatalf("alloc: %v", err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := m.FreeFrame(id); err != nil {
			t.Fatalf("free: %v", err)
		}
	}
	if m.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", m.InUse())
	}
	if m.PeakInUse() != 5 {
		t.Fatalf("PeakInUse = %d, want 5", m.PeakInUse())
	}
}

// TestAllocFreeBalance property: any interleaving of allocs and frees keeps
// InUse equal to the live count.
func TestAllocFreeBalance(t *testing.T) {
	f := func(ops []bool) bool {
		m := NewMemory(0)
		var live []FrameID
		for _, alloc := range ops {
			if alloc || len(live) == 0 {
				id, err := m.AllocFrame()
				if err != nil {
					return false
				}
				live = append(live, id)
			} else {
				id := live[len(live)-1]
				live = live[:len(live)-1]
				if err := m.FreeFrame(id); err != nil {
					return false
				}
			}
			if m.InUse() != uint64(len(live)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAllocFramesMatchesAllocFrame allocates batches with AllocFrames and
// with AllocFrame one at a time, from memories whose free lists hold frames
// and whose budgets run out mid-batch, and requires the same frames, counts
// and errors.
func TestAllocFramesMatchesAllocFrame(t *testing.T) {
	for _, budget := range []uint64{0, 40, 53} {
		batch, single := NewMemory(budget), NewMemory(budget)
		for round, n := range []int{10, 7, 30, 12} {
			got := make([]FrameID, n)
			k, err := batch.AllocFrames(got)
			want := make([]FrameID, 0, n)
			var werr error
			for len(want) < n {
				f, e := single.AllocFrame()
				if e != nil {
					werr = e
					break
				}
				want = append(want, f)
			}
			if k != len(want) || err != werr {
				t.Fatalf("budget %d round %d: AllocFrames = %d, %v; one by one %d, %v", budget, round, k, err, len(want), werr)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("budget %d round %d: frame %d = %d, one by one %d", budget, round, i, got[i], want[i])
				}
			}
			if batch.InUse() != single.InUse() || batch.PeakInUse() != single.PeakInUse() {
				t.Fatalf("budget %d round %d: in use %d/%d, one by one %d/%d", budget, round,
					batch.InUse(), batch.PeakInUse(), single.InUse(), single.PeakInUse())
			}
			// Free every third frame so the next batch draws on the
			// free list first.
			for i := 0; i < k; i += 3 {
				if err := batch.FreeFrame(got[i]); err != nil {
					t.Fatal(err)
				}
				if err := single.FreeFrame(want[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
