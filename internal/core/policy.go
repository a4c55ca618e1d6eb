package core

import (
	"fmt"
	"sort"

	"repro/internal/pool"
)

// PolicyKind selects one of the §3.4 strategies for recycling the virtual
// pages of long-lived pools (and of direct-mode allocations, which behave
// like one program-lifetime pool).
type PolicyKind uint8

// Reuse policy kinds.
const (
	// PolicyNever never recycles freed shadow pages: the absolute
	// detection guarantee, and the paper's measured configuration
	// (pool destroys still recycle whole pools — that reuse is *safe*).
	PolicyNever PolicyKind = iota + 1
	// PolicyOnExhaustion recycles freed shadow pages only when the
	// virtual address space runs out (§3.4's "simplest solution").
	PolicyOnExhaustion
	// PolicyInterval recycles freed shadow pages every Interval
	// allocations ("or at some regular (but large) interval").
	PolicyInterval
	// PolicyGC runs the conservative collector over the long-lived pools
	// at every Interval allocations, recycling only freed shadow pages no
	// live memory still points into — so every pointer that *does* still
	// dangle keeps trapping.
	PolicyGC
)

// String implements fmt.Stringer.
func (k PolicyKind) String() string {
	switch k {
	case PolicyNever:
		return "never"
	case PolicyOnExhaustion:
		return "on-exhaustion"
	case PolicyInterval:
		return "interval"
	case PolicyGC:
		return "conservative-gc"
	default:
		return fmt.Sprintf("policy(%d)", uint8(k))
	}
}

// ReusePolicy configures shadow-page recycling.
type ReusePolicy struct {
	Kind PolicyKind
	// Interval is the allocation count between reclamations for
	// PolicyInterval and PolicyGC. Zero means 1 << 20.
	Interval uint64
	// Roots supplies extra conservative-GC root ranges (globals, stack)
	// as [start, end) address pairs. Consulted at collection time.
	Roots func() [][2]uint64
}

// NeverReuse is the paper's measured configuration.
func NeverReuse() ReusePolicy { return ReusePolicy{Kind: PolicyNever} }

// maybeIntervalReclaim triggers interval-based policies. When a GC schedule
// is installed it owns all triggering (interval, watermark, pool destroy),
// so the policy's own clock is disabled — a cycle must never double-fire.
func (r *Remapper) maybeIntervalReclaim() {
	if r.sched != nil {
		r.maybeScheduledGC()
		return
	}
	if r.policy.Kind != PolicyInterval && r.policy.Kind != PolicyGC {
		return
	}
	interval := r.policy.Interval
	if interval == 0 {
		interval = 1 << 20
	}
	if r.allocSeq == 0 || r.allocSeq%interval != 0 {
		return
	}
	if r.policy.Kind == PolicyInterval {
		r.reclaimFreed()
		return
	}
	r.CollectGarbage()
}

// reclaimFreed unconditionally recycles every freed shadow run into the
// remapper-local free list, giving up the detection guarantee for those
// (already freed) objects. Returns the number of pages reclaimed.
func (r *Remapper) reclaimFreed() uint64 {
	// Quarantined sampled objects survive the reclaim (and stay on the
	// freed lists for a later one): the sampling tier's bounded quarantine
	// exists precisely to keep their PROT_NONE pages trapping a little
	// longer than the reuse policy otherwise would.
	pages, _ := r.sweepFreed(RecycledByReclaim, func(obj *Object) bool {
		return obj.Quarantined && obj.State == StateFreed
	})
	return pages
}

// sweepFreed walks the freed lists — direct-mode objects first, then each
// pool's in ID order, the order recycled runs feed address reuse in — keeping
// the objects keep accepts and recycling the rest. Returns the pages and
// objects recycled.
func (r *Remapper) sweepFreed(reason RecycleReason, keep func(*Object) bool) (pages, objects uint64) {
	sweep := func(objs []*Object) []*Object {
		kept := objs[:0]
		for _, obj := range objs {
			if keep(obj) {
				kept = append(kept, obj)
			} else if r.recycle(obj, reason) {
				pages += obj.ShadowRun.Pages
				objects++
			}
		}
		if len(kept) == 0 {
			return nil
		}
		return kept
	}
	r.freedNoPool = sweep(r.freedNoPool)
	for _, p := range r.freedPoolsSorted() {
		if kept := sweep(r.freedInPool[p]); kept != nil {
			r.freedInPool[p] = kept
		} else {
			delete(r.freedInPool, p)
		}
	}
	return pages, objects
}

// recycle retires one freed object and moves its shadow run to the recycled
// list. Objects already retired (unprotected-free degradation) are skipped:
// their pages are not PROT_NONE and their counters were already settled.
// Reports whether the object was recycled.
func (r *Remapper) recycle(obj *Object, reason RecycleReason) bool {
	if obj.State != StateFreed {
		return false
	}
	r.retire(obj, reason)
	if obj.Pool != nil {
		obj.Pool.DetachRun(obj.ShadowRun)
	}
	r.recycled = append(r.recycled, obj.ShadowRun)
	return true
}

// freedPoolsSorted returns the pools with pending freed objects in a
// deterministic order (recycled-run order feeds address reuse, which feeds
// the physically indexed cache — map order would break reproducibility).
func (r *Remapper) freedPoolsSorted() []*pool.Pool {
	out := make([]*pool.Pool, 0, len(r.freedInPool))
	for p := range r.freedInPool {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}
