// Package pool implements the Automatic Pool Allocation run-time library
// (Lattner & Adve, PLDI'05) with the modifications the paper's §3.5
// describes:
//
//   - pooldestroy returns all of a pool's pages to a shared free list of
//     virtual pages instead of unmapping them;
//   - poolfree does not return blocks to that shared list (only to the
//     pool's own free lists);
//   - poolalloc obtains pages from the shared free list first, falling back
//     to mmap when the list is empty.
//
// The shadow-page remapper (internal/core) attaches the shadow page runs it
// creates to the owning pool, so a pooldestroy releases canonical and shadow
// pages together — that is Insight 2's virtual-address reuse.
//
// The runtime also records a dynamic pool points-to graph ("which currently
// live pools point to it", §3.4) used by the conservative-GC reuse strategy.
package pool

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

const (
	headerSize = 8
	minPayload = 16
	align      = 8
	numBins    = 32
	binStep    = 16
	// slabPages is the default slab granularity. Pools grow in slabs;
	// the shared free list holds page runs of at least this size.
	slabPages = 4
	// maxSize is the largest request whose rounding cannot wrap: roundSize
	// adds align-1, carve adds the header and then PageSize-1.
	maxSize = math.MaxUint64 - (align - 1) - headerSize - (vm.PageSize - 1)
)

// PageRun is a contiguous run of virtual pages.
type PageRun struct {
	Addr  vm.Addr // page-aligned start
	Pages uint64
}

// runQueue is a FIFO of same-sized page runs. Pops reuse runs in release
// order, which is what the old single-list first-fit scan did whenever every
// candidate run had the same size (the common 4-page-slab case).
type runQueue struct {
	runs []PageRun
	head int
}

func (q *runQueue) empty() bool    { return q.head == len(q.runs) }
func (q *runQueue) push(r PageRun) { q.runs = append(q.runs, r) }

func (q *runQueue) pop() PageRun {
	r := q.runs[q.head]
	q.head++
	if q.head == len(q.runs) {
		q.runs = q.runs[:0]
		q.head = 0
	}
	return r
}

// Runtime is the per-process pool-allocation runtime: the shared free list
// of virtual pages and the registry of live pools. Not safe for concurrent
// use.
type Runtime struct {
	proc *kernel.Process

	// The shared free list of virtual page runs, shared across pools
	// (§3.3: "we avoid the explicit munmap calls by maintaining a free
	// list of virtual pages shared across pools"). Runs are bucketed by
	// exact size so TakeRun is a map hit in the common case; freeSizes
	// keeps the distinct sizes with non-empty buckets sorted ascending so
	// the fallback is a binary-searched best fit instead of an O(runs)
	// scan. Invariant: s appears in freeSizes iff freeBySize[s] is
	// non-empty.
	freeBySize map[uint64]*runQueue
	freeSizes  []uint64
	freePages  uint64

	pools map[*Pool]struct{}

	nextPoolID uint64

	// stats
	destroys      uint64
	reusedPages   uint64
	mmappedPages  uint64
	releasedPages uint64
}

// NewRuntime returns a Runtime on proc.
func NewRuntime(proc *kernel.Process) *Runtime {
	return &Runtime{
		proc:       proc,
		freeBySize: make(map[uint64]*runQueue),
		pools:      make(map[*Pool]struct{}),
	}
}

// Proc returns the owning process.
func (rt *Runtime) Proc() *kernel.Process { return rt.proc }

// FreePages returns the number of pages currently on the shared free list.
func (rt *Runtime) FreePages() uint64 { return rt.freePages }

// ReusedPages returns how many pages poolalloc recycled from the free list.
func (rt *Runtime) ReusedPages() uint64 { return rt.reusedPages }

// LivePools returns the currently live pools (GC roots for the §3.4
// collector).
func (rt *Runtime) LivePools() []*Pool {
	out := make([]*Pool, 0, len(rt.pools))
	for p := range rt.pools {
		out = append(out, p)
	}
	return out
}

// TakeRun pops a run of exactly-or-more n pages off the shared free list,
// returning its address without touching its (stale) mappings. The caller is
// responsible for refreshing the pages: MmapFixed for canonical pool pages,
// RemapFixedAlias for shadow pages. Returns ok=false when no run is big
// enough.
//
// An exact-size run is always preferred (oldest first); only when none exists
// is the smallest larger run split. Splitting a big run to serve a small
// request when an exact fit was sitting on the list is pure fragmentation
// churn: it leaves an odd-sized remainder behind and spends the big run that
// a later large request will miss.
func (rt *Runtime) TakeRun(n uint64) (vm.Addr, bool) {
	if n == 0 {
		return 0, false
	}
	if q := rt.freeBySize[n]; q != nil && !q.empty() {
		r := q.pop()
		if q.empty() {
			rt.removeFreeSize(n)
		}
		rt.freePages -= n
		rt.reusedPages += n
		return r.Addr, true
	}
	i := sort.Search(len(rt.freeSizes), func(i int) bool { return rt.freeSizes[i] > n })
	if i == len(rt.freeSizes) {
		return 0, false
	}
	s := rt.freeSizes[i]
	q := rt.freeBySize[s]
	r := q.pop()
	if q.empty() {
		rt.removeFreeSize(s)
	}
	rt.freePages -= s
	rt.pushFreeRun(PageRun{Addr: r.Addr + n*vm.PageSize, Pages: s - n})
	rt.reusedPages += n
	return r.Addr, true
}

// pushFreeRun adds r to the size-bucketed free list, maintaining the
// freeSizes index and the freePages counter.
func (rt *Runtime) pushFreeRun(r PageRun) {
	q := rt.freeBySize[r.Pages]
	if q == nil {
		q = &runQueue{}
		rt.freeBySize[r.Pages] = q
	}
	if q.empty() {
		i := sort.Search(len(rt.freeSizes), func(i int) bool { return rt.freeSizes[i] >= r.Pages })
		rt.freeSizes = append(rt.freeSizes, 0)
		copy(rt.freeSizes[i+1:], rt.freeSizes[i:])
		rt.freeSizes[i] = r.Pages
	}
	q.push(r)
	rt.freePages += r.Pages
}

// removeFreeSize drops a now-empty bucket's size from the sorted index.
func (rt *Runtime) removeFreeSize(s uint64) {
	i := sort.Search(len(rt.freeSizes), func(i int) bool { return rt.freeSizes[i] >= s })
	rt.freeSizes = append(rt.freeSizes[:i], rt.freeSizes[i+1:]...)
}

// takeRun pops a run of at least n pages off the shared free list and
// remaps it to fresh frames (the recycled virtual pages may be protected or
// aliased from their previous life; a MAP_FIXED brings them back fresh —
// the same page-table work a real kernel would do lazily on first touch).
// Returns ok=false when no run is big enough.
func (rt *Runtime) takeRun(n uint64) (vm.Addr, bool, error) {
	addr, ok := rt.TakeRun(n)
	if !ok {
		return 0, false, nil
	}
	if err := rt.proc.MmapFixed(addr, n); err != nil {
		return 0, false, err
	}
	return addr, true, nil
}

// releaseRun puts a page run on the shared free list. The mappings are left
// in place (no munmap — that is the point of the shared list); takeRun
// refreshes them on reuse.
func (rt *Runtime) releaseRun(r PageRun) {
	rt.pushFreeRun(r)
	rt.releasedPages += r.Pages
}

// slabAlloc obtains a page run for a pool slab: shared free list first,
// mmap as fallback.
func (rt *Runtime) slabAlloc(n uint64) (vm.Addr, error) {
	if addr, ok, err := rt.takeRun(n); err != nil {
		return 0, err
	} else if ok {
		return addr, nil
	}
	addr, err := rt.proc.Mmap(n * vm.PageSize)
	if err != nil {
		return 0, err
	}
	rt.mmappedPages += n
	return addr, nil
}

// Pool is one run-time pool descriptor. All allocation out of a pool comes
// from its own slabs; destroying the pool releases every page at once.
type Pool struct {
	rt *Runtime

	// id distinguishes pools in diagnostics; name is the static pool
	// variable name assigned by the APA transformation (for reports).
	id   uint64
	name string

	// elemSize is the type size hint passed to poolinit.
	elemSize uint64

	slabs []PageRun
	// attached are extra page runs owned by this pool but not allocated
	// by it — the remapper's shadow pages. attachedIdx maps run start
	// address to its slot so DetachRun is O(1); the slice order is
	// unspecified (detach swap-removes).
	attached    []PageRun
	attachedIdx map[vm.Addr]int

	bins [numBins][]vm.Addr
	// large holds free chunks bigger than the largest bin, sorted by size
	// ascending (insertion order among equal sizes), so takeChunk
	// binary-searches a best fit instead of scanning.
	large []chunkRef

	wildAddr vm.Addr
	wildLeft uint64

	live map[vm.Addr]uint64

	// pointsTo is the dynamic pool points-to set: pools that objects in
	// this pool point to (recorded by the store path in the interpreter).
	pointsTo map[*Pool]struct{}

	destroyed bool

	allocs uint64
	frees  uint64
}

type chunkRef struct {
	addr vm.Addr
	size uint64
}

// Runtime returns the pool's owning runtime.
func (p *Pool) Runtime() *Runtime { return p.rt }

// Init creates a pool (the poolinit operation). elemSize is the dominant
// object size hint from the points-to node's type; 0 means unknown.
func (rt *Runtime) Init(name string, elemSize uint64) *Pool {
	rt.proc.Meter().ChargeAllocatorOp()
	rt.nextPoolID++
	p := &Pool{
		rt:       rt,
		id:       rt.nextPoolID,
		name:     name,
		elemSize: elemSize,
		live:     make(map[vm.Addr]uint64),
		pointsTo: make(map[*Pool]struct{}),
	}
	rt.pools[p] = struct{}{}
	rt.proc.Flight().Record(obs.FlightEvent{
		Cycles: rt.proc.Meter().Cycles(), Kind: obs.FlightPool,
		What: "init " + name, Site: rt.proc.Site(), Obj: p.id,
	})
	return p
}

// Name returns the pool's diagnostic name.
func (p *Pool) Name() string { return p.name }

// ID returns the pool's unique id.
func (p *Pool) ID() uint64 { return p.id }

// Destroyed reports whether the pool has been destroyed.
func (p *Pool) Destroyed() bool { return p.destroyed }

// Allocs returns the number of poolalloc calls served.
func (p *Pool) Allocs() uint64 { return p.allocs }

// Frees returns the number of poolfree calls served.
func (p *Pool) Frees() uint64 { return p.frees }

func roundSize(n uint64) uint64 {
	if n < minPayload {
		n = minPayload
	}
	return (n + align - 1) &^ (align - 1)
}

func binFor(size uint64) int {
	if size > numBins*binStep {
		return -1
	}
	return int((size+binStep-1)/binStep) - 1
}

func binPayload(idx int) uint64 { return uint64(idx+1) * binStep }

// Alloc allocates size bytes from the pool (the poolalloc operation).
func (p *Pool) Alloc(size uint64) (vm.Addr, error) {
	if p.destroyed {
		return 0, fmt.Errorf("pool %s: alloc after destroy", p.name)
	}
	if size == 0 {
		size = 1
	}
	if size > maxSize {
		return 0, fmt.Errorf("pool %s: alloc of %d bytes overflows the size arithmetic", p.name, size)
	}
	payload := roundSize(size)
	p.rt.proc.Meter().ChargeAllocatorOp()

	addr, actual, err := p.takeChunk(payload)
	if err != nil {
		return 0, err
	}
	if err := p.writeHeader(addr, actual, true); err != nil {
		return 0, err
	}
	p.live[addr] = actual
	p.allocs++
	return addr, nil
}

func (p *Pool) takeChunk(payload uint64) (vm.Addr, uint64, error) {
	if idx := binFor(payload); idx >= 0 {
		want := binPayload(idx)
		if n := len(p.bins[idx]); n > 0 {
			addr := p.bins[idx][n-1]
			p.bins[idx] = p.bins[idx][:n-1]
			return addr, want, nil
		}
		return p.carve(want)
	}
	if i := sort.Search(len(p.large), func(i int) bool { return p.large[i].size >= payload }); i < len(p.large) {
		c := p.large[i]
		p.large = append(p.large[:i], p.large[i+1:]...)
		return c.addr, c.size, nil
	}
	return p.carve(payload)
}

func (p *Pool) carve(payload uint64) (vm.Addr, uint64, error) {
	need := headerSize + payload
	if p.wildLeft < need {
		if p.wildLeft >= headerSize+minPayload {
			leftover := p.wildLeft - headerSize
			addr := p.wildAddr + headerSize
			if err := p.writeHeader(addr, leftover, false); err != nil {
				return 0, 0, err
			}
			p.pushFree(addr, leftover)
		}
		pages := uint64(slabPages)
		if minPages := (need + vm.PageSize - 1) / vm.PageSize; minPages > pages {
			pages = minPages
		}
		a, err := p.rt.slabAlloc(pages)
		if err != nil {
			return 0, 0, fmt.Errorf("pool %s: grow: %w", p.name, err)
		}
		p.slabs = append(p.slabs, PageRun{Addr: a, Pages: pages})
		p.wildAddr = a
		p.wildLeft = pages * vm.PageSize
	}
	addr := p.wildAddr + headerSize
	p.wildAddr += need
	p.wildLeft -= need
	return addr, payload, nil
}

func (p *Pool) pushFree(addr vm.Addr, size uint64) {
	if idx := binFor(size); idx >= 0 && binPayload(idx) == size {
		p.bins[idx] = append(p.bins[idx], addr)
		return
	}
	i := sort.Search(len(p.large), func(i int) bool { return p.large[i].size > size })
	p.large = append(p.large, chunkRef{})
	copy(p.large[i+1:], p.large[i:])
	p.large[i] = chunkRef{addr: addr, size: size}
}

func (p *Pool) writeHeader(payloadAddr vm.Addr, size uint64, inUse bool) error {
	w := size << 3
	if inUse {
		w |= 1
	}
	return p.rt.proc.MMU().WriteWord(payloadAddr-headerSize, 8, w)
}

// SizeOf returns the payload size of a live chunk by reading its header.
func (p *Pool) SizeOf(payloadAddr vm.Addr) (uint64, error) {
	w, err := p.rt.proc.MMU().ReadWord(payloadAddr-headerSize, 8)
	if err != nil {
		return 0, err
	}
	if w&1 == 0 {
		return 0, fmt.Errorf("pool %s: SizeOf of free chunk %#x", p.name, payloadAddr)
	}
	return w >> 3, nil
}

// Free returns a chunk to the pool's own free lists (the poolfree
// operation). Per §3.5, freed blocks never go to the shared page list.
func (p *Pool) Free(payloadAddr vm.Addr) error {
	if p.destroyed {
		return fmt.Errorf("pool %s: free after destroy", p.name)
	}
	p.rt.proc.Meter().ChargeAllocatorOp()
	size, ok := p.live[payloadAddr]
	if !ok {
		return fmt.Errorf("pool %s: invalid or double free of %#x", p.name, payloadAddr)
	}
	if err := p.writeHeader(payloadAddr, size, false); err != nil {
		return err
	}
	delete(p.live, payloadAddr)
	p.frees++
	p.pushFree(payloadAddr, size)
	return nil
}

// AttachRun associates an externally created page run (a shadow-page block)
// with the pool so Destroy releases it with the pool's own pages.
func (p *Pool) AttachRun(r PageRun) {
	if p.attachedIdx == nil {
		p.attachedIdx = make(map[vm.Addr]int)
	}
	p.attachedIdx[r.Addr] = len(p.attached)
	p.attached = append(p.attached, r)
}

// AttachedRuns returns the shadow page runs attached so far (GC hook). The
// order is unspecified.
func (p *Pool) AttachedRuns() []PageRun { return p.attached }

// DetachRun removes a previously attached run (used when the conservative
// collector recycles a shadow block early). Returns false if r was not
// attached.
func (p *Pool) DetachRun(r PageRun) bool {
	i, ok := p.attachedIdx[r.Addr]
	if !ok || p.attached[i] != r {
		return false
	}
	last := len(p.attached) - 1
	if i != last {
		p.attached[i] = p.attached[last]
		p.attachedIdx[p.attached[i].Addr] = i
	}
	p.attached = p.attached[:last]
	delete(p.attachedIdx, r.Addr)
	return true
}

// Pages returns the total canonical+attached pages owned by the pool.
func (p *Pool) Pages() uint64 {
	var n uint64
	for _, r := range p.slabs {
		n += r.Pages
	}
	for _, r := range p.attached {
		n += r.Pages
	}
	return n
}

// RecordPointsTo records that objects in p point into q (the dynamic pool
// points-to graph of §3.4).
func (p *Pool) RecordPointsTo(q *Pool) {
	if q != nil && q != p {
		p.pointsTo[q] = struct{}{}
	}
}

// PointsTo returns the pools this pool's objects point into.
func (p *Pool) PointsTo() []*Pool {
	out := make([]*Pool, 0, len(p.pointsTo))
	for q := range p.pointsTo {
		out = append(out, q)
	}
	return out
}

// Destroy releases every canonical and attached (shadow) page of the pool to
// the shared free list (the pooldestroy operation). No syscalls are made —
// that is the §3.3 optimization.
func (p *Pool) Destroy() error {
	if p.destroyed {
		return fmt.Errorf("pool %s: double destroy", p.name)
	}
	p.destroyed = true
	p.rt.proc.Meter().ChargeAllocatorOp()
	for _, r := range p.slabs {
		p.rt.releaseRun(r)
	}
	for _, r := range p.attached {
		p.rt.releaseRun(r)
	}
	p.slabs = nil
	p.attached = nil
	p.attachedIdx = nil
	p.live = nil
	delete(p.rt.pools, p)
	p.rt.destroys++
	p.rt.proc.Flight().Record(obs.FlightEvent{
		Cycles: p.rt.proc.Meter().Cycles(), Kind: obs.FlightPool,
		What: "destroy " + p.name, Site: p.rt.proc.Site(), Obj: p.id,
	})
	return nil
}
