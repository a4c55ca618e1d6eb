// Package phys simulates physical memory as a pool of page frames.
//
// Frames are allocated and freed by the kernel layer on behalf of address
// spaces. The allocator tracks peak usage so experiments can report physical
// memory consumption (the paper's claim is that the shadow-page scheme keeps
// it essentially identical to the original program, while Electric Fence
// style one-object-per-frame allocation blows it up), and it enforces an
// optional frame budget so the Electric Fence contrast experiment can
// reproduce enscript running out of physical memory.
package phys

import (
	"errors"
	"fmt"
	"sync"
)

// PageSize is the simulated page size in bytes. The paper's calculations
// (for example the 9-hour address-space-exhaustion bound in §3.4) assume
// 4 KB pages.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// ErrOutOfMemory is returned when the frame budget is exhausted. It models
// the OOM kill the paper observes for enscript under Electric Fence.
var ErrOutOfMemory = errors.New("phys: out of physical memory")

// FrameID identifies one physical page frame.
type FrameID uint64

// zeroPage backs every frame that has not been written since it was
// allocated: Frame returns it until FrameForWrite gives the frame an array of
// its own (demand-zero, as an OS maps untouched anonymous memory to one zero
// page). Nothing may write it.
var zeroPage [PageSize]byte

// framePool recycles the backing arrays that FreeFrame and Release give up,
// across every Memory in the program. An array is zeroed when it is taken,
// not when it is returned.
var framePool sync.Pool

// takeFrame returns a backing array, zeroed when zero is set; an array about
// to be overwritten whole skips the clear.
func takeFrame(zero bool) *[PageSize]byte {
	f, ok := framePool.Get().(*[PageSize]byte)
	if !ok {
		return new([PageSize]byte)
	}
	if zero {
		*f = [PageSize]byte{}
	}
	return f
}

// Memory is a pool of page frames with demand-zero backing storage: a frame
// gets a backing array only when it is first written. It is not safe for
// concurrent use.
//
// A Memory can be frozen (Freeze) and then forked (Fork) any number of times,
// including concurrently: each fork shares the frozen parent's frame arrays
// copy-on-write, so snapshot reuse costs O(frames) pointer copies instead of
// O(bytes). Writers must go through FrameForWrite, which unshares a frame the
// first time a fork touches it — the same aliasing trick the paper plays with
// virtual pages, applied one level up to whole machines.
type Memory struct {
	// frames holds each frame's backing array; nil means the frame has not
	// been written since it was allocated and reads as zeroPage.
	frames    []*[PageSize]byte
	isFree    []bool
	free      []FrameID
	inUse     uint64
	peakInUse uint64
	maxFrames uint64 // 0 means unlimited
	// frozen marks a snapshot parent: all mutation panics. Forks are never
	// frozen.
	frozen bool
	// shared[id], when true, means frames[id] (never nil then) belongs to
	// the frozen parent this Memory was forked from and must be copied
	// before any write. nil for a Memory that was never forked, so the hot
	// path costs one len() check.
	shared []bool
}

// NewMemory returns a Memory with at most maxFrames frames; maxFrames == 0
// means unlimited.
func NewMemory(maxFrames uint64) *Memory {
	return &Memory{maxFrames: maxFrames}
}

// AllocFrame returns a zeroed frame, or ErrOutOfMemory if the budget is
// exhausted. The frame has no backing array until it is first written.
func (m *Memory) AllocFrame() (FrameID, error) {
	if m.frozen {
		panic("phys: AllocFrame on a frozen or released Memory")
	}
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		m.isFree[id] = false
		m.noteAlloc()
		return id, nil
	}
	if m.maxFrames != 0 && uint64(len(m.frames)) >= m.maxFrames {
		return 0, ErrOutOfMemory
	}
	id := FrameID(len(m.frames))
	m.frames = append(m.frames, nil)
	m.isFree = append(m.isFree, false)
	m.noteAlloc()
	return id, nil
}

// owns reports whether frames[id] is a backing array this Memory may write
// and give up: present and not shared with a frozen parent.
func (m *Memory) owns(id FrameID) bool {
	return m.frames[id] != nil && (int(id) >= len(m.shared) || !m.shared[id])
}

func (m *Memory) noteAlloc() {
	m.inUse++
	if m.inUse > m.peakInUse {
		m.peakInUse = m.inUse
	}
}

// FreeFrame returns a frame to the pool. Freeing an invalid or already-free
// frame is a programming error in the kernel layer and returns an error so
// tests can catch it.
func (m *Memory) FreeFrame(id FrameID) error {
	if m.frozen {
		panic("phys: FreeFrame on a frozen or released Memory")
	}
	if uint64(id) >= uint64(len(m.frames)) {
		return fmt.Errorf("phys: free of invalid frame %d", id)
	}
	if m.isFree[id] {
		return fmt.Errorf("phys: double free of frame %d", id)
	}
	if m.owns(id) {
		framePool.Put(m.frames[id])
	}
	m.frames[id] = nil
	if int(id) < len(m.shared) {
		m.shared[id] = false
	}
	m.isFree[id] = true
	m.free = append(m.free, id)
	m.inUse--
	return nil
}

// Frame returns the contents of a frame for reading. The caller must hold a
// valid FrameID from AllocFrame. The array is read-only: a frame never
// written reads as the zero page every such frame shares, and after a Fork
// the array may be shared with the snapshot parent. Callers that write must
// use FrameForWrite.
func (m *Memory) Frame(id FrameID) *[PageSize]byte {
	if f := m.frames[id]; f != nil {
		return f
	}
	return &zeroPage
}

// FrameForWrite returns the backing array of a frame for mutation. A frame
// never written gets a zeroed array of its own; one still shared with the
// frozen snapshot this Memory was forked from is copied first.
func (m *Memory) FrameForWrite(id FrameID) *[PageSize]byte {
	if m.frozen {
		panic("phys: write to a frozen or released Memory")
	}
	f := m.frames[id]
	switch {
	case f == nil:
		f = takeFrame(true)
	case int(id) < len(m.shared) && m.shared[id]:
		cp := takeFrame(false)
		*cp = *f
		f = cp
		m.shared[id] = false
	default:
		return f
	}
	m.frames[id] = f
	return f
}

// Release hands every backing array this Memory owns to the frame pool,
// leaving arrays shared with a frozen parent to the parent, and leaves the
// Memory unusable: a later read of a frame or any mutation panics. A fork's
// owner calls it once the fork's last reader is done. A frozen snapshot is
// never released.
func (m *Memory) Release() {
	if m.frozen {
		panic("phys: Release of a frozen or released Memory")
	}
	for id := range m.frames {
		if m.owns(FrameID(id)) {
			framePool.Put(m.frames[id])
		}
	}
	*m = Memory{frozen: true}
}

// Freeze marks the Memory as an immutable snapshot parent. All further
// mutation (alloc, free, FrameForWrite) panics; Fork becomes legal. Freeze is
// idempotent and must be called before the Memory is shared across
// goroutines.
func (m *Memory) Freeze() { m.frozen = true }

// Fork returns a mutable copy-on-write clone of a frozen Memory. The clone
// shares every frame's backing array with the parent until FrameForWrite
// unshares it or FreeFrame drops it. Fork is safe to call from many
// goroutines at once because it only reads the frozen parent.
func (m *Memory) Fork() *Memory {
	if !m.frozen {
		panic("phys: Fork of an unfrozen Memory")
	}
	n := &Memory{
		frames:    make([]*[PageSize]byte, len(m.frames)),
		isFree:    make([]bool, len(m.isFree)),
		free:      make([]FrameID, len(m.free)),
		inUse:     m.inUse,
		peakInUse: m.peakInUse,
		maxFrames: m.maxFrames,
		shared:    make([]bool, len(m.frames)),
	}
	copy(n.frames, m.frames)
	copy(n.isFree, m.isFree)
	copy(n.free, m.free)
	for i, f := range m.frames {
		n.shared[i] = f != nil
	}
	return n
}

// InUse returns the number of frames currently allocated.
func (m *Memory) InUse() uint64 { return m.inUse }

// PeakInUse returns the high-water mark of allocated frames.
func (m *Memory) PeakInUse() uint64 { return m.peakInUse }

// Budget returns the frame budget (0 = unlimited).
func (m *Memory) Budget() uint64 { return m.maxFrames }
