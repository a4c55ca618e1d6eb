// Package heap implements the "underlying system allocator" of the paper's
// §3.2: a conventional segregated-free-list malloc/free over mmap'd arenas.
//
// Two properties matter to the scheme built on top:
//
//   - Each chunk carries an 8-byte header just before the payload recording
//     the payload size ("malloc implementations usually add a header
//     recording the size of the object just before the object itself"). The
//     remapper reads this through the canonical address to learn how many
//     pages an object spans.
//   - The allocator is completely unaware of page remapping: it hands out
//     canonical addresses and reuses them (and therefore the underlying
//     physical memory) normally after free.
//
// Header and free-list words live in simulated memory and are accessed
// through the MMU, so allocator bookkeeping is charged to the meter like the
// real instruction stream it models.
package heap

import (
	"fmt"
	"math"

	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

const (
	// headerSize is the per-chunk size header.
	headerSize = 8
	// minPayload keeps chunks reusable for free-list links.
	minPayload = 16
	// align is the payload alignment.
	align = 8
	// numBins is the number of exact-fit small bins; bin i serves payload
	// size (i+1)*16, so bins cover 16..512 bytes.
	numBins = 32
	// binStep is the size granularity of small bins.
	binStep = 16
	// flagInUse marks a chunk allocated in its header word.
	flagInUse = 1
	// maxSize is the largest request whose rounding cannot wrap: roundSize
	// adds align-1, carve adds the header and then PageSize-1.
	maxSize = math.MaxUint64 - (align - 1) - headerSize - (vm.PageSize - 1)
)

// defaultArenaPages is the mmap growth unit (64 KB), a typical sbrk/mmap
// threshold for 2006-era allocators.
const defaultArenaPages = 16

// Option configures a Heap.
type Option func(*Heap)

// WithArenaPages sets the arena growth unit in pages.
func WithArenaPages(n uint64) Option {
	return func(h *Heap) {
		if n > 0 {
			h.arenaPages = n
		}
	}
}

// Stats summarizes allocator activity.
type Stats struct {
	Allocs    uint64
	Frees     uint64
	LiveBytes uint64
	PeakBytes uint64
	// ArenaBytes is the total memory obtained from the kernel.
	ArenaBytes uint64
}

// Heap is a malloc-style allocator for one process. Not safe for concurrent
// use.
type Heap struct {
	proc *kernel.Process

	// bins[i] holds free chunks with payload exactly (i+1)*binStep bytes.
	bins [numBins][]vm.Addr
	// large holds free chunks bigger than the largest bin.
	large []chunkRef

	// wilderness is the unused tail of the newest arena.
	wildAddr vm.Addr
	wildLeft uint64

	arenaPages uint64

	// live tracks allocated payload addresses and sizes, the integrity
	// check real allocators approximate with canaries. It lets Free
	// reject invalid and (allocator-level) double frees determinately.
	live map[vm.Addr]uint64

	stats Stats
}

type chunkRef struct {
	addr vm.Addr // payload address
	size uint64  // payload size
}

// New returns a Heap allocating from proc.
func New(proc *kernel.Process, opts ...Option) *Heap {
	h := &Heap{
		proc:       proc,
		arenaPages: defaultArenaPages,
		live:       make(map[vm.Addr]uint64),
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// roundSize rounds a request up to an allocatable payload size.
func roundSize(n uint64) uint64 {
	if n < minPayload {
		n = minPayload
	}
	return (n + align - 1) &^ (align - 1)
}

// binFor returns the bin index for an exact payload size, or -1 for large.
func binFor(size uint64) int {
	if size > numBins*binStep {
		return -1
	}
	// Sizes are 8-aligned; bins are 16-spaced, so round up to the bin.
	idx := int((size + binStep - 1) / binStep)
	return idx - 1
}

// binPayload returns the payload size served by bin idx.
func binPayload(idx int) uint64 { return uint64(idx+1) * binStep }

// Malloc allocates size bytes and returns the payload address.
func (h *Heap) Malloc(size uint64) (vm.Addr, error) {
	if size == 0 {
		size = 1
	}
	if size > maxSize {
		return 0, fmt.Errorf("heap: malloc of %d bytes overflows the size arithmetic", size)
	}
	payload := roundSize(size)
	h.proc.Meter().ChargeAllocatorOp()

	addr, actual, err := h.takeChunk(payload)
	if err != nil {
		return 0, err
	}
	if err := h.writeHeader(addr, actual, true); err != nil {
		return 0, err
	}
	h.live[addr] = actual
	h.stats.Allocs++
	h.stats.LiveBytes += actual
	if h.stats.LiveBytes > h.stats.PeakBytes {
		h.stats.PeakBytes = h.stats.LiveBytes
	}
	return addr, nil
}

// takeChunk finds or carves a chunk with at least payload bytes; returns the
// payload address and the chunk's actual payload size.
func (h *Heap) takeChunk(payload uint64) (vm.Addr, uint64, error) {
	// Exact small bin.
	if idx := binFor(payload); idx >= 0 {
		want := binPayload(idx)
		if n := len(h.bins[idx]); n > 0 {
			addr := h.bins[idx][n-1]
			h.bins[idx] = h.bins[idx][:n-1]
			return addr, want, nil
		}
		return h.carve(want)
	}
	// Large list: first fit.
	for i, c := range h.large {
		if c.size >= payload {
			h.large = append(h.large[:i], h.large[i+1:]...)
			return c.addr, c.size, nil
		}
	}
	return h.carve(payload)
}

// carve takes a fresh chunk from the wilderness, growing the arena if needed.
func (h *Heap) carve(payload uint64) (vm.Addr, uint64, error) {
	need := headerSize + payload
	if h.wildLeft < need {
		// Retire the old wilderness into a free chunk if it is usable.
		if h.wildLeft >= headerSize+minPayload {
			leftover := h.wildLeft - headerSize
			addr := h.wildAddr + headerSize
			if err := h.writeHeader(addr, leftover, false); err != nil {
				return 0, 0, err
			}
			h.pushFree(addr, leftover)
		}
		pages := h.arenaPages
		if minPages := (need + vm.PageSize - 1) / vm.PageSize; minPages > pages {
			pages = minPages
		}
		a, err := h.proc.Mmap(pages * vm.PageSize)
		if err != nil {
			return 0, 0, fmt.Errorf("heap: grow arena: %w", err)
		}
		h.wildAddr = a
		h.wildLeft = pages * vm.PageSize
		h.stats.ArenaBytes += pages * vm.PageSize
	}
	addr := h.wildAddr + headerSize
	h.wildAddr += need
	h.wildLeft -= need
	return addr, payload, nil
}

// pushFree adds a free chunk to the right list.
func (h *Heap) pushFree(addr vm.Addr, size uint64) {
	if idx := binFor(size); idx >= 0 && binPayload(idx) == size {
		h.bins[idx] = append(h.bins[idx], addr)
		return
	}
	h.large = append(h.large, chunkRef{addr: addr, size: size})
}

// writeHeader stores the chunk header through the MMU.
func (h *Heap) writeHeader(payloadAddr vm.Addr, size uint64, inUse bool) error {
	w := size << 3
	if inUse {
		w |= flagInUse
	}
	return h.proc.MMU().WriteWord(payloadAddr-headerSize, 8, w)
}

// readHeader loads the chunk header through the MMU.
func (h *Heap) readHeader(payloadAddr vm.Addr) (size uint64, inUse bool, err error) {
	w, err := h.proc.MMU().ReadWord(payloadAddr-headerSize, 8)
	if err != nil {
		return 0, false, err
	}
	return w >> 3, w&flagInUse != 0, nil
}

// SizeOf returns the payload size of an allocated chunk, reading the header
// the way the remapper's Deallocation step does.
func (h *Heap) SizeOf(payloadAddr vm.Addr) (uint64, error) {
	size, inUse, err := h.readHeader(payloadAddr)
	if err != nil {
		return 0, err
	}
	if !inUse {
		return 0, fmt.Errorf("heap: SizeOf of free chunk %#x", payloadAddr)
	}
	return size, nil
}

// Free returns a chunk to the allocator. The address must be one previously
// returned by Malloc and still live.
func (h *Heap) Free(payloadAddr vm.Addr) error {
	h.proc.Meter().ChargeAllocatorOp()
	size, ok := h.live[payloadAddr]
	if !ok {
		return fmt.Errorf("heap: invalid or double free of %#x", payloadAddr)
	}
	hdrSize, inUse, err := h.readHeader(payloadAddr)
	if err != nil {
		return err
	}
	if !inUse || hdrSize != size {
		return fmt.Errorf("heap: corrupted header at %#x (size %d/%d, inUse %v)",
			payloadAddr, hdrSize, size, inUse)
	}
	if err := h.writeHeader(payloadAddr, size, false); err != nil {
		return err
	}
	delete(h.live, payloadAddr)
	h.stats.Frees++
	h.stats.LiveBytes -= size
	h.pushFree(payloadAddr, size)
	return nil
}

// Stats returns a copy of the allocator counters.
func (h *Heap) Stats() Stats { return h.stats }

// Live reports whether addr is a live allocation (test hook).
func (h *Heap) Live(addr vm.Addr) bool {
	_, ok := h.live[addr]
	return ok
}
