// Package core implements the paper's primary contribution: detection of all
// dangling pointer uses by giving every heap allocation its own shadow
// virtual page(s) aliased to the allocator's canonical page(s), and relying
// on the MMU to trap uses after free.
//
// Allocation (§3.2): the request is forwarded to the underlying allocator
// with the size incremented by one word; a fresh block of virtual pages is
// obtained with mremap(old_size = 0) aliasing the canonical pages; the
// canonical address is recorded in the extra word at the start of the
// object; and the caller receives the shadow address at the same page
// offset. The underlying allocator still believes the object lives at the
// canonical address, so it needs no changes and reuses physical memory
// exactly as the original program would.
//
// Deallocation: the canonical address is read back through the shadow page
// (which itself traps on a double free), the object's shadow pages are
// mprotect'ed to PROT_NONE, and the canonical address is passed to the
// underlying free. Any later load, store, or free through the stale pointer
// takes a hardware fault.
//
// Virtual-address reuse (§3.3): when allocations come from an Automatic Pool
// Allocation pool, the shadow page runs are attached to the pool, and
// pooldestroy releases canonical and shadow pages together to the shared
// free list. For long-lived pools, §3.4's reuse policies (on-exhaustion,
// interval, conservative GC) recycle freed objects' shadow pages through a
// remapper-local free list.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

// remapHeaderSize is the extra word prepended to each allocation to record
// the canonical address ("we are effectively extending that header to also
// record the value of Page(a)", §3.2).
const remapHeaderSize = 8

// Allocator is the underlying allocator contract the remapper wraps: a
// conventional malloc/free plus the size metadata every real malloc keeps.
type Allocator interface {
	Alloc(size uint64) (vm.Addr, error)
	Free(addr vm.Addr) error
	SizeOf(addr vm.Addr) (uint64, error)
}

// ObjectState tracks an allocation through its lifetime.
type ObjectState uint8

// Object states.
const (
	// StateLive: allocated, shadow pages RW.
	StateLive ObjectState = iota + 1
	// StateFreed: freed, shadow pages PROT_NONE, traps on use.
	StateFreed
	// StateRecycled: shadow pages recycled under a reuse policy or a pool
	// destroy; detection guarantee no longer applies to this object.
	StateRecycled
)

// String implements fmt.Stringer.
func (s ObjectState) String() string {
	switch s {
	case StateLive:
		return "live"
	case StateFreed:
		return "freed"
	case StateRecycled:
		return "recycled"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Object is the remapper's record of one allocation, kept for diagnostics.
type Object struct {
	// ShadowAddr is the pointer the program holds.
	ShadowAddr vm.Addr
	// CanonAddr is the underlying allocator's pointer (start of the
	// extra header word).
	CanonAddr vm.Addr
	// UserSize is the size the program requested.
	UserSize uint64
	// ShadowRun is the object's private virtual page block.
	ShadowRun pool.PageRun
	// State is the lifecycle state.
	State ObjectState
	// Pool is the owning pool, or nil in direct (interposition) mode.
	Pool *pool.Pool
	// AllocSite and FreeSite are diagnostic labels (source locations).
	AllocSite string
	FreeSite  string
	// FreeCycles is the process meter reading when the object was freed;
	// trap forensics subtracts it from the trap-time reading to report how
	// long the pointer dangled.
	FreeCycles uint64
	// AllocSeq orders allocations for reports.
	AllocSeq uint64
	// Guarded marks objects followed by an overflow guard page.
	Guarded bool
	// Quarantined marks sampled freed objects currently held by the
	// sampling tier's bounded quarantine: reuse policies must not recycle
	// their shadow pages until eviction (sampling.go).
	Quarantined bool
	// RecycledBy records which path retired a StateRecycled object — the
	// missed-detection ledger classifies stale uses by it.
	RecycledBy RecycleReason
}

// Stats summarizes remapper activity.
type Stats struct {
	Allocs           uint64
	Frees            uint64
	DanglingDetected uint64
	// OverflowsDetected counts guard-page hits (overflow-guard mode).
	OverflowsDetected uint64
	ShadowPagesLive   uint64
	ShadowPagesFreed  uint64
	// RecycledPages counts shadow pages reused under a §3.4 policy.
	RecycledPages uint64
	// GCRuns counts conservative-GC invocations.
	GCRuns uint64
	// ElidedAllocs counts allocations that skipped shadow-page protection
	// because the static safety analysis proved their class is never
	// freed before any use.
	ElidedAllocs uint64
	// ElisionMisses counts frees that targeted an elided object — each
	// one is a static-analysis proof being wrong, so a sound analysis
	// keeps this at zero.
	ElisionMisses uint64
	// TransientRetries counts syscall re-attempts after transient injected
	// failures (degrade.go's retry ladder).
	TransientRetries uint64
	// DegradedAllocs counts allocations that fell back to the unprotected
	// canonical address because shadow-page setup failed persistently.
	DegradedAllocs uint64
	// DegradedFrees counts frees of degraded allocations (forwarded
	// straight to the underlying allocator).
	DegradedFrees uint64
	// UnprotectedFrees counts freed objects whose PROT_NONE mprotect
	// failed persistently, leaving their shadow pages unprotected.
	UnprotectedFrees uint64
	// DoubleFrees counts detected frees of already-freed objects (a
	// subset of DanglingDetected, reported first-class).
	DoubleFrees uint64
	// MissedDetections counts stale uses that went undetected because the
	// object's shadow pages were recycled before the trap could fire —
	// the §3.4 reuse policies' exact cost, counted by the ground-truth
	// ledger (NoteStaleUse).
	MissedDetections uint64
	// GCScheduled counts conservative-GC cycles run by the policy clock
	// (subset of GCRuns).
	GCScheduled uint64
	// GCScannedWords counts words visited by conservative-GC scans.
	GCScannedWords uint64
	// GCCycleCost is the total cycles charged for conservative-GC scans
	// (equals the kernel's GCChargedCycles by construction).
	GCCycleCost uint64
	// SampledAllocs counts allocations the sampling tier guarded with
	// shadow pages (zero unless sampling is enabled).
	SampledAllocs uint64
	// UnsampledAllocs counts allocations the sampling tier handed out at
	// their canonical address without protection.
	UnsampledAllocs uint64
	// UnsampledFrees counts frees of unsampled allocations (forwarded
	// straight to the underlying allocator).
	UnsampledFrees uint64
	// SamplingQuarantineEvictions counts sampled freed objects evicted from
	// the bounded quarantine (their shadow pages become recyclable again).
	SamplingQuarantineEvictions uint64
	// SamplingSiteHeats counts adaptive-rate resets: a trap on a cooled
	// site restored every-allocation sampling there.
	SamplingSiteHeats uint64
	// SamplingSiteCools counts adaptive-rate interval doublings on sites
	// whose sampled objects kept not trapping.
	SamplingSiteCools uint64
}

// Remapper is the per-process shadow-page engine. Not safe for concurrent
// use.
type Remapper struct {
	proc *kernel.Process

	// objects maps each object's shadow run to the object, one entry per
	// run, for fault explanation and reuse bookkeeping. Only index and
	// unindex write it; lookup reads it.
	objects vm.RangeMap[*Object]
	// byPool tracks objects per pool so pool destroys can retire records.
	byPool map[*pool.Pool][]*Object
	// freedNoPool are freed direct-mode objects eligible for recycling.
	freedNoPool []*Object
	// freedInPool are freed pool objects (per pool) eligible for
	// recycling while their pool lives.
	freedInPool map[*pool.Pool][]*Object

	// recycled is the remapper-local free list of shadow page runs
	// reclaimed under a reuse policy.
	recycled []pool.PageRun

	// canon records every allocation handed out at its canonical address
	// (no shadow pages, no remap header), by why it was: a static elision
	// proof, a degraded shadow setup, or the sampling tier passing it by.
	// Free forwards such addresses straight to the allocator; canonByPool
	// lets pool destroys retire the records before the addresses can be
	// recycled.
	canon       map[vm.Addr]canonKind
	canonByPool map[*pool.Pool][]vm.Addr

	// sampling, when non-nil, is the GWP-ASan-style sampled tier
	// (sampling.go).
	sampling *sampler
	// retry bounds the transient-failure retry ladder.
	retry RetryConfig

	policy   ReusePolicy
	allocSeq uint64
	stats    Stats

	// gcLog records every collector cycle's accounting.
	gcLog []GCCycle
	// lastCycleAlloc / lastCycleReserved are the policy clock (policy.go):
	// the allocSeq and fresh-VA readings when it last fired. fired reports
	// whether a firing has passed the tuning gates yet.
	lastCycleAlloc    uint64
	lastCycleReserved uint64
	fired             bool
	// schedErr is the first HealthCheck violation found after a cycle the
	// clock ran (nil = all cycles audited clean).
	schedErr error
	// ledger is the ground-truth missed-detection meter (ledger.go).
	ledger MissLedger

	// guardPages enables the overflow-guard extension (guard.go).
	guardPages bool
	// batchSize > 0 enables batched deallocation protection (batch.go);
	// pending holds freed objects awaiting their mprotect.
	batchSize int
	pending   []*Object
}

// objectNodes is the node pool every Remapper's object index uses.
var objectNodes vm.RangePool[*Object]

// Config is a detector's whole configuration, fixed for its lifetime. The
// zero Config is the paper's base scheme.
type Config struct {
	// Policy is the §3.4 shadow-page reuse policy.
	Policy ReusePolicy
	// Guards reserves an overflow guard page after every shadow block
	// (guard.go).
	Guards bool
	// Sampling, when non-nil, installs the sampled detection tier
	// (sampling.go).
	Sampling *SamplingSpec
}

// New returns a Remapper on proc configured by cfg.
func New(proc *kernel.Process, cfg Config) *Remapper {
	r := &Remapper{
		proc:        proc,
		byPool:      make(map[*pool.Pool][]*Object),
		freedInPool: make(map[*pool.Pool][]*Object),
		canon:       make(map[vm.Addr]canonKind),
		canonByPool: make(map[*pool.Pool][]vm.Addr),
		retry:       DefaultRetryConfig(),
		policy:      cfg.Policy,
		guardPages:  cfg.Guards,
	}
	if r.policy.Interval == 0 {
		r.policy.Interval = DefaultInterval
	}
	if r.policy.clocked() {
		r.lastCycleReserved = proc.Space().ReservedPages()
	}
	if cfg.Sampling != nil {
		r.sampling = &sampler{spec: *cfg.Sampling, sites: make(map[string]*siteState)}
	}
	r.objects.UsePool(&objectNodes)
	return r
}

// Release hands the object index's nodes back to the shared node pool.
// The Remapper is unusable afterwards. Object records stay valid: reports
// that name them may outlive it.
func (r *Remapper) Release() { r.objects.Release() }

// Proc returns the owning process.
func (r *Remapper) Proc() *kernel.Process { return r.proc }

// Stats returns a copy of the counters.
func (r *Remapper) Stats() Stats { return r.stats }

// shadowBlock obtains a block of n virtual pages aliased to the canonical
// pages starting at canonBase. Sources, in order: the remapper's recycled
// list (populated by a §3.4 reuse policy), the pool runtime's shared free
// list (pages of destroyed pools — the §3.3 reuse, which keeps the full
// detection guarantee), and finally a fresh mremap.
func (r *Remapper) shadowBlock(owner *pool.Pool, canonBase vm.Addr, n uint64) (vm.Addr, error) {
	for i, run := range r.recycled {
		if run.Pages < n {
			continue
		}
		addr := run.Addr
		// Remap before taking the run off the list: on persistent failure
		// the run stays on the free list rather than leaking.
		if err := r.retryTransient(func() error {
			return r.proc.RemapFixedAlias(addr, canonBase, n)
		}); err != nil {
			return 0, err
		}
		if run.Pages == n {
			r.recycled = append(r.recycled[:i], r.recycled[i+1:]...)
		} else {
			r.recycled[i] = pool.PageRun{Addr: run.Addr + n*vm.PageSize, Pages: run.Pages - n}
		}
		r.stats.RecycledPages += n
		return addr, nil
	}
	if owner != nil {
		if addr, ok := owner.Runtime().TakeRun(n); ok {
			if err := r.retryTransient(func() error {
				return r.proc.RemapFixedAlias(addr, canonBase, n)
			}); err != nil {
				return 0, err
			}
			return addr, nil
		}
	}
	addr, err := vm.Addr(0), error(nil)
	err = r.retryTransient(func() error {
		var e error
		addr, e = r.proc.MremapAlias(canonBase, n)
		return e
	})
	if err == nil {
		return addr, nil
	}
	// §3.4 first strategy: "start reusing virtual pages when we run out of
	// virtual addresses". An injected VA budget models the same pressure,
	// so a persistent (non-transient) syscall failure triggers the same
	// reclamation. PolicyNever keeps the absolute guarantee and fails
	// instead.
	var se *kernel.SyscallError
	exhausted := errors.Is(err, vm.ErrAddressSpaceExhausted) ||
		(errors.As(err, &se) && !se.Transient)
	if exhausted && r.policy.Kind != PolicyNever {
		if reclaimed := r.reclaimFreed(); reclaimed > 0 {
			return r.shadowBlock(owner, canonBase, n)
		}
	}
	return 0, err
}

// Alloc allocates size bytes from al with shadow-page protection. owner is
// the APA pool al belongs to, or nil when al is the plain heap
// (binary-interposition mode, which "can be directly applied on the binaries
// and does not require source code", §1.1). site is a diagnostic label for
// the allocation site.
func (r *Remapper) Alloc(al Allocator, owner *pool.Pool, size uint64, site string) (vm.Addr, error) {
	if size > math.MaxUint64-remapHeaderSize {
		return 0, fmt.Errorf("core: alloc of %d bytes overflows the remap header", size)
	}
	// The sampling tier decides first: an unsampled allocation takes the
	// canonical-address path and never touches the shadow machinery. The
	// decision is pure Go bookkeeping (no simulated cycles), so a rate-1
	// run charges exactly what an unsampled-tier run does.
	if r.sampling != nil && !r.sampling.shouldSample(site) {
		return r.allocCanonical(al, owner, size, site, canonUnsampled)
	}
	// Scope kernel charges (the allocator's mmaps, the shadow mremap) to
	// the allocation site for cycle attribution, and group them under one
	// alloc span when tracing.
	defer r.proc.SetSite(r.proc.SetSite(site))
	tr := r.proc.Tracer()
	defer tr.End(tr.Begin("alloc", site))
	if r.policy.clocked() {
		r.tick()
	}

	var canon vm.Addr
	if err := r.retryTransient(func() error {
		var e error
		canon, e = al.Alloc(size + remapHeaderSize)
		return e
	}); err != nil {
		// No canonical memory means nothing to hand out — degradation
		// cannot help; this is the same failure native malloc would see.
		return 0, err
	}
	// The shadow block covers every page the padded object touches.
	span := vm.PageSpan(canon, size+remapHeaderSize)
	canonBase := vm.PageBase(canon)
	shadowBase, err := r.shadowBlock(owner, canonBase, span)
	if err != nil {
		// Shadow-page setup failed persistently but the canonical block is
		// good: degrade this allocation to the unprotected canonical
		// address rather than failing the request (the header word goes
		// unused). Non-injected failures (true VA exhaustion under
		// PolicyNever, allocator faults) still propagate.
		var se *kernel.SyscallError
		if errors.As(err, &se) {
			r.recordCanonical(owner, canon, canonDegraded)
			return canon, nil
		}
		return 0, fmt.Errorf("core: shadow block: %w", err)
	}
	userPtr := shadowBase + vm.Offset(canon) + remapHeaderSize

	// Record the canonical address in the extra header word, written
	// through the shadow mapping (both views alias the same frame).
	if err := r.proc.MMU().WriteWord(userPtr-remapHeaderSize, 8, canon); err != nil {
		return 0, fmt.Errorf("core: write remap header: %w", err)
	}

	guarded := false
	if r.guardPages {
		if err := r.reserveGuard(shadowBase, span); err == nil {
			guarded = true
		}
	}

	run := pool.PageRun{Addr: shadowBase, Pages: span}
	r.allocSeq++
	obj := &Object{
		ShadowAddr: userPtr,
		CanonAddr:  canon,
		UserSize:   size,
		ShadowRun:  run,
		State:      StateLive,
		Pool:       owner,
		AllocSite:  site,
		AllocSeq:   r.allocSeq,
		Guarded:    guarded,
	}
	if err := r.index(obj); err != nil {
		return 0, fmt.Errorf("core: index shadow block: %w", err)
	}
	if owner != nil {
		owner.AttachRun(run)
		r.byPool[owner] = append(r.byPool[owner], obj)
	}
	r.stats.Allocs++
	r.stats.ShadowPagesLive += span
	if r.sampling != nil {
		r.stats.SampledAllocs++
	}
	r.proc.Profile().CountAlloc(site)
	r.proc.Flight().Record(obs.FlightEvent{
		Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightAlloc, Site: site,
		Obj: obj.AllocSeq, Addr: uint64(userPtr), Pages: span,
	})
	return userPtr, nil
}

// AllocElided allocates size bytes WITHOUT shadow-page protection: the
// canonical pointer is returned to the program, no remap header is prepended,
// and free-time mprotect never happens for the object. Only allocations the
// static safety analysis proved never-freed-before-use may take this path;
// the remapper records the address so a free that contradicts the proof is
// counted in Stats.ElisionMisses instead of corrupting the header protocol.
func (r *Remapper) AllocElided(al Allocator, owner *pool.Pool, size uint64, site string) (vm.Addr, error) {
	return r.allocCanonical(al, owner, size, site, canonElided)
}

// canonKind says why an allocation was handed out at its canonical address.
type canonKind uint8

// Canonical-address record kinds.
const (
	// canonElided: a static proof said the object is never freed before
	// its uses (AllocElided).
	canonElided canonKind = iota + 1
	// canonDegraded: shadow-page setup failed persistently (degrade.go).
	canonDegraded
	// canonUnsampled: the sampling tier did not guard the site
	// (sampling.go).
	canonUnsampled
)

// allocCanonical is the unprotected allocation path shared by elided and
// unsampled allocations: the program receives the canonical address (no
// shadow pages, no remap header), exactly what the native allocator would
// hand out, under its own span name.
func (r *Remapper) allocCanonical(al Allocator, owner *pool.Pool, size uint64, site string, kind canonKind) (vm.Addr, error) {
	defer r.proc.SetSite(r.proc.SetSite(site))
	span := "alloc-elided"
	if kind == canonUnsampled {
		span = "alloc-unsampled"
	}
	tr := r.proc.Tracer()
	defer tr.End(tr.Begin(span, site))
	canon, err := al.Alloc(size)
	if err != nil {
		return 0, err
	}
	r.recordCanonical(owner, canon, kind)
	r.proc.Profile().CountAlloc(site)
	return canon, nil
}

// recordCanonical records a canonical-address allocation so Free forwards it
// untouched instead of reading a header that does not exist, and counts it
// under its kind.
func (r *Remapper) recordCanonical(owner *pool.Pool, canon vm.Addr, kind canonKind) {
	r.canon[canon] = kind
	if owner != nil {
		r.canonByPool[owner] = append(r.canonByPool[owner], canon)
	}
	switch kind {
	case canonElided:
		r.stats.ElidedAllocs++
	case canonDegraded:
		r.stats.DegradedAllocs++
		r.proc.Flight().Record(obs.FlightEvent{
			Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightDegrade,
			What: "degraded-alloc", Site: r.proc.Site(), Addr: uint64(canon),
		})
	case canonUnsampled:
		r.stats.UnsampledAllocs++
	}
}

// Free deallocates the object at the shadow address f, protecting its shadow
// pages so any later use traps. site is a diagnostic label for the free
// site. A free of an already-freed pointer is itself a dangling pointer use
// ("use of a pointer is a read, write or free operation", §2.1) and is
// reported as a *DanglingError.
func (r *Remapper) Free(al Allocator, f vm.Addr, site string) error {
	// Charges default to the free site; once the object is identified the
	// scope narrows to its allocation site so the per-site profile breaks
	// each site's cost into its alloc-side and free-side syscalls.
	defer r.proc.SetSite(r.proc.SetSite(site))
	tr := r.proc.Tracer()
	defer tr.End(tr.Begin("free", site))
	if r.policy.clocked() {
		r.tick()
	}

	// A canonical-address allocation has no shadow pages or remap header:
	// forward the free untouched.
	if kind, ok := r.canon[f]; ok {
		delete(r.canon, f)
		switch kind {
		case canonDegraded:
			r.stats.DegradedFrees++
		case canonUnsampled:
			// Its later stale uses go undetected — that is the sampling
			// tier's traded coverage, measured by the ground-truth ledger.
			r.stats.UnsampledFrees++
		case canonElided:
			// The static never-freed proof was wrong: count the miss.
			r.stats.ElisionMisses++
		}
		return al.Free(f)
	}

	// Read the canonical address back through the shadow page. On a
	// double free the page is PROT_NONE and this very read traps — the
	// detection the paper gets for free from its header placement.
	canon, err := r.proc.MMU().ReadWord(f-remapHeaderSize, 8)
	if err != nil {
		if fault, ok := err.(*vm.Fault); ok {
			return r.Explain(fault, site)
		}
		return err
	}

	obj := r.ObjectAt(f)
	if obj != nil && obj.State == StateFreed && obj.ShadowAddr == f {
		// A double free whose mprotect is still queued (batched mode):
		// the page did not trap, but the bookkeeping knows.
		r.stats.DanglingDetected++
		r.stats.DoubleFrees++
		if r.sampling != nil && r.sampling.onTrap(obj.AllocSite) {
			r.stats.SamplingSiteHeats++
		}
		fault := &vm.Fault{
			Addr:   f - remapHeaderSize,
			Access: vm.AccessRead,
			Reason: vm.FaultProtection,
		}
		return newDoubleFreeError(DanglingError{
			Fault:   fault,
			Object:  obj,
			UseSite: site,
			Offset:  -remapHeaderSize,
			Report:  r.buildReport(obj, fault, site, -remapHeaderSize),
		})
	}
	if obj == nil || obj.State != StateLive || obj.ShadowAddr != f {
		return fmt.Errorf("core: free of non-heap or misaligned pointer %#x at %s", f, site)
	}
	if canon != obj.CanonAddr {
		// The header word disagrees with the bookkeeping: the program
		// overwrote the word just before the object (an underflow that
		// real allocators only notice much later, if ever).
		return fmt.Errorf(
			"core: corrupted allocation header at %s: object allocated at %s (header %#x, expected %#x)",
			site, obj.AllocSite, canon, obj.CanonAddr)
	}

	// Read the size the underlying allocator recorded and protect every
	// page the object spans.
	if _, err := al.SizeOf(canon); err != nil {
		return fmt.Errorf("core: free %#x: %w", f, err)
	}
	if err := al.Free(canon); err != nil {
		return err
	}

	obj.State = StateFreed
	obj.FreeSite = site
	obj.FreeCycles = r.proc.Meter().Cycles()
	r.proc.SetSite(obj.AllocSite)
	r.proc.Profile().CountFree(obj.AllocSite)
	r.proc.Flight().Record(obs.FlightEvent{
		Cycles: obj.FreeCycles, Kind: obs.FlightFree, Site: site,
		Obj: obj.AllocSeq, Addr: uint64(f), Pages: obj.ShadowRun.Pages,
	})
	r.stats.Frees++
	r.stats.ShadowPagesLive -= obj.ShadowRun.Pages
	r.stats.ShadowPagesFreed += obj.ShadowRun.Pages
	if obj.Pool != nil {
		r.freedInPool[obj.Pool] = append(r.freedInPool[obj.Pool], obj)
	} else {
		r.freedNoPool = append(r.freedNoPool, obj)
	}
	if r.sampling != nil {
		// A trap-free sampled free: cool the site's adaptive rate and
		// quarantine the object so late stale uses still trap.
		if r.sampling.onSampledFree(obj) {
			r.stats.SamplingSiteCools++
		}
		r.quarantineAdd(obj)
	}
	if r.batchSize > 0 {
		return r.queueProtect(obj)
	}
	if err := r.retryTransient(func() error {
		return r.proc.Mprotect(obj.ShadowRun.Addr, obj.ShadowRun.Pages, vm.ProtNone)
	}); err != nil {
		// The free itself succeeded; only the PROT_NONE protection failed.
		// A persistent injected failure degrades to an unprotected free
		// (the object leaves tracking, detection narrows); anything else
		// is a real kernel-state error and propagates.
		var se *kernel.SyscallError
		if !errors.As(err, &se) {
			return err
		}
		r.dropUnprotected(obj)
	}
	return nil
}

// Explain converts a hardware fault into a *DanglingError when the faulting
// address lies in a freed object's shadow pages; otherwise it returns the
// fault unchanged (a plain wild-pointer segfault). The trap delivery cost is
// charged either way — this is the run-time system's SIGSEGV handler.
func (r *Remapper) Explain(fault *vm.Fault, site string) error {
	// Attribute the trap delivery to the allocation site of the object the
	// access landed in, when one is known.
	obj := r.ObjectAt(fault.Addr)
	if obj != nil {
		defer r.proc.SetSite(r.proc.SetSite(obj.AllocSite))
	}
	r.proc.ChargeTrap()
	if err := r.explainGuard(fault, site); err != nil {
		r.stats.OverflowsDetected++
		return err
	}
	if obj == nil || obj.State != StateFreed {
		return fault
	}
	r.stats.DanglingDetected++
	if r.sampling != nil && r.sampling.onTrap(obj.AllocSite) {
		r.stats.SamplingSiteHeats++
	}
	offset := int64(fault.Addr) - int64(obj.ShadowAddr)
	de := DanglingError{
		Fault:   fault,
		Object:  obj,
		UseSite: site,
		Offset:  offset,
		Report:  r.buildReport(obj, fault, site, offset),
	}
	if offset < 0 {
		// The only negative-offset access is Free's header read: a free of
		// an already-freed object, reported first-class.
		r.stats.DoubleFrees++
		return newDoubleFreeError(de)
	}
	return &de
}

// ObjectAt returns the remapper's record covering the shadow page of addr,
// if any (diagnostics and tests).
func (r *Remapper) ObjectAt(addr vm.Addr) *Object {
	return r.lookup(vm.PageOf(addr))
}

// lookup returns the object indexed at shadow page vpn, or nil.
func (r *Remapper) lookup(vpn vm.VPN) *Object {
	return r.objects.Get(vpn)
}

// index maps obj's shadow run to obj.
func (r *Remapper) index(obj *Object) error {
	return r.objects.Set(vm.PageOf(obj.ShadowRun.Addr), obj.ShadowRun.Pages, obj)
}

// unindex drops obj's shadow run from the index, leaving any part of it
// since re-indexed to another object alone. A run that was indexed is a
// valid range, so the deletion cannot fail.
func (r *Remapper) unindex(obj *Object) {
	_ = r.objects.DeleteIf(vm.PageOf(obj.ShadowRun.Addr), obj.ShadowRun.Pages, func(o *Object) bool { return o == obj })
}

// retire is the one path out of tracking: it settles the page counter of
// obj's state before the call, marks it recycled by reason, and drops its
// pages from the index. Callers add their own step (recycling the run,
// clearing quarantine, a flight event).
func (r *Remapper) retire(obj *Object, reason RecycleReason) {
	switch obj.State {
	case StateLive:
		r.stats.ShadowPagesLive -= obj.ShadowRun.Pages
	case StateFreed:
		r.stats.ShadowPagesFreed -= obj.ShadowRun.Pages
	}
	obj.State = StateRecycled
	obj.RecycledBy = reason
	r.unindex(obj)
}

// OnPoolDestroy retires the remapper's records for a pool that is about to
// be destroyed. The pool itself releases canonical and attached shadow pages
// to the shared free list; afterwards those virtual pages may be recycled,
// so their object records no longer describe them.
//
// Call this immediately before pool.Destroy.
func (r *Remapper) OnPoolDestroy(p *pool.Pool) {
	for _, obj := range r.byPool[p] {
		r.retire(obj, RecycledByPoolDestroy)
		// A quarantined object retired by its pool's destroy no longer
		// delays anything; clearing the flag keeps the quarantine
		// eviction counter honest.
		obj.Quarantined = false
	}
	delete(r.byPool, p)
	delete(r.freedInPool, p)
	// Retire canonical-address records too: after the destroy those
	// canonical pages return to the shared free list and may be recycled,
	// and a later legitimate free at a recycled address must not take the
	// forwarding path (or count as an elision miss).
	for _, addr := range r.canonByPool[p] {
		delete(r.canon, addr)
	}
	delete(r.canonByPool, p)

	// Pool destruction is the §3.3 mass-recycling event: a clock
	// configured for it fires now, while the other pools' freed runs are
	// still candidates.
	if r.policy.clocked() && r.policy.OnPoolDestroy {
		r.fire(GCTriggerPoolDestroy)
	}
}
