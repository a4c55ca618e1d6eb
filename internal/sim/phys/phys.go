// Package phys simulates physical memory as a pool of page frames.
//
// Frames are allocated and freed by the kernel layer on behalf of address
// spaces. The allocator tracks peak usage so experiments can report physical
// memory consumption (the paper's claim is that the shadow-page scheme keeps
// it essentially identical to the original program, while Electric Fence
// style one-object-per-frame allocation blows it up), and it enforces an
// optional frame budget so the Electric Fence contrast experiment can
// reproduce enscript running out of physical memory.
//
// Frames are demand-zero: a frame gets a backing array only when it is first
// written. A released Memory hands its arrays and its per-frame tables to
// pools the next Memory takes them from, so a short-lived machine allocates
// little of its own.
package phys

import (
	"errors"
	"fmt"
	"slices"
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

// takeFrame returns a zeroed backing array.
func takeFrame() *[PageSize]byte {
	f, ok := framePool.Get().(*[PageSize]byte)
	if !ok {
		return new([PageSize]byte)
	}
	*f = [PageSize]byte{}
	return f
}

// frameTables is a Memory's per-frame state. Release hands it to
// tablePool, cleared, and NewMemory takes it back, so a short-lived machine
// does not grow its tables from nothing.
type frameTables struct {
	// frames holds each frame's backing array; nil means the frame has not
	// been written since it was allocated and reads as zeroPage.
	frames []*[PageSize]byte
	isFree []bool
	free   []FrameID
}

var tablePool sync.Pool // *frameTables, empty

// Memory is a pool of page frames with demand-zero backing storage: a frame
// gets a backing array only when it is first written, and Release hands the
// arrays to a pool every later Memory draws from. It is not safe for
// concurrent use.
type Memory struct {
	frameTables
	// box carries the tables to and from tablePool.
	box       *frameTables
	inUse     uint64
	peakInUse uint64
	maxFrames uint64 // 0 means unlimited
	// released marks a Memory whose arrays went back to the pool: all
	// mutation panics.
	released bool
}

// NewMemory returns a Memory with at most maxFrames frames; maxFrames == 0
// means unlimited.
func NewMemory(maxFrames uint64) *Memory {
	m := &Memory{maxFrames: maxFrames}
	if box, ok := tablePool.Get().(*frameTables); ok {
		m.box, m.frameTables = box, *box
	}
	return m
}

// AllocFrame returns a zeroed frame, or ErrOutOfMemory if the budget is
// exhausted. The frame has no backing array until it is first written.
func (m *Memory) AllocFrame() (FrameID, error) {
	if m.released {
		panic("phys: AllocFrame on a released Memory")
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

// AllocFrames fills frames with newly allocated frames, exactly as
// len(frames) calls of AllocFrame would, and returns how many it filled: all
// of them, or fewer with ErrOutOfMemory once the budget is exhausted. The
// tables grow once for the whole request, not by doubling frame by frame.
func (m *Memory) AllocFrames(frames []FrameID) (int, error) {
	if fresh := uint64(len(frames)) - min(uint64(len(frames)), uint64(len(m.free))); fresh > 0 {
		if m.maxFrames != 0 {
			fresh = min(fresh, m.maxFrames-min(m.maxFrames, uint64(len(m.frames))))
		}
		m.frames = slices.Grow(m.frames, int(fresh))
		m.isFree = slices.Grow(m.isFree, int(fresh))
	}
	for i := range frames {
		f, err := m.AllocFrame()
		if err != nil {
			return i, err
		}
		frames[i] = f
	}
	return len(frames), nil
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
	if m.released {
		panic("phys: FreeFrame on a released Memory")
	}
	if uint64(id) >= uint64(len(m.frames)) {
		return fmt.Errorf("phys: free of invalid frame %d", id)
	}
	if m.isFree[id] {
		return fmt.Errorf("phys: double free of frame %d", id)
	}
	if f := m.frames[id]; f != nil {
		framePool.Put(f)
	}
	m.frames[id] = nil
	m.isFree[id] = true
	m.free = append(m.free, id)
	m.inUse--
	return nil
}

// Frame returns the contents of a frame for reading. The caller must hold a
// valid FrameID from AllocFrame. The array is read-only: a frame never
// written reads as the zero page every such frame shares. Callers that write
// must use FrameForWrite.
func (m *Memory) Frame(id FrameID) *[PageSize]byte {
	if f := m.frames[id]; f != nil {
		return f
	}
	return &zeroPage
}

// FrameForWrite returns the backing array of a frame for mutation. A frame
// never written gets a zeroed array of its own.
func (m *Memory) FrameForWrite(id FrameID) *[PageSize]byte {
	if m.released {
		panic("phys: write to a released Memory")
	}
	f := m.frames[id]
	if f == nil {
		f = takeFrame()
		m.frames[id] = f
	}
	return f
}

// Release hands every backing array to the frame pool and leaves the Memory
// unusable: a later read of a frame or any mutation panics. The machine's
// owner calls it once the machine's last reader is done.
func (m *Memory) Release() {
	if m.released {
		panic("phys: Release of a released Memory")
	}
	for _, f := range m.frames {
		if f != nil {
			framePool.Put(f)
		}
	}
	clear(m.frames)
	clear(m.isFree)
	box := m.box
	if box == nil {
		box = new(frameTables)
	}
	*box = frameTables{frames: m.frames[:0], isFree: m.isFree[:0], free: m.free[:0]}
	tablePool.Put(box)
	*m = Memory{released: true}
}

// InUse returns the number of frames currently allocated.
func (m *Memory) InUse() uint64 { return m.inUse }

// PeakInUse returns the high-water mark of allocated frames.
func (m *Memory) PeakInUse() uint64 { return m.peakInUse }

// Budget returns the frame budget (0 = unlimited).
func (m *Memory) Budget() uint64 { return m.maxFrames }
