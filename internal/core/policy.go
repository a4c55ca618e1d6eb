package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

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
	// It is the zero kind, so the zero ReusePolicy is the paper's.
	PolicyNever PolicyKind = iota
	// PolicyOnExhaustion recycles freed shadow pages only when the
	// virtual address space runs out (§3.4's "simplest solution").
	PolicyOnExhaustion
	// PolicyInterval recycles every freed shadow page each time the
	// policy clock fires ("or at some regular (but large) interval").
	PolicyInterval
	// PolicyGC runs the conservative collector over the long-lived pools
	// each time the policy clock fires, recycling only freed shadow pages
	// no live memory still points into — so every pointer that *does*
	// still dangle keeps trapping.
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

// DefaultInterval is the allocation interval a zero ReusePolicy.Interval
// means.
const DefaultInterval = 256

// ReusePolicy is the whole §3.4 configuration: which strategy recycles freed
// shadow pages and, for PolicyInterval and PolicyGC, the one clock that says
// when. The clock fires on an allocation interval, a fresh-VA watermark, or
// a pool destroy; the manual-tuning gates (the paper's third mitigation)
// skip a firing that would not pay for itself. What a firing does is chosen
// by Kind: PolicyInterval reclaims every freed run, PolicyGC runs an audited
// collector cycle. PolicyNever and PolicyOnExhaustion have no clock and
// ignore every field but Kind.
type ReusePolicy struct {
	Kind PolicyKind
	// Interval fires the clock every this many allocations
	// (0 = DefaultInterval).
	Interval uint64
	// WatermarkPages fires the clock when fresh VA reservations have grown
	// by this many pages since it last fired (0 = disabled).
	// Reservations are monotone, so the trigger is a growth delta, not an
	// absolute level.
	WatermarkPages uint64
	// OnPoolDestroy fires the clock right after each pool destroy, while
	// the surviving pools' freed runs are candidates.
	OnPoolDestroy bool
	// MinFreedPages skips a firing while fewer freed shadow pages than
	// this await reclamation (0 = no gate).
	MinFreedPages uint64
	// CooldownAllocs skips a firing that comes fewer than this many
	// allocations after the previous one, whatever its trigger (0 = no
	// gate).
	CooldownAllocs uint64
}

// NeverReuse is the paper's measured configuration.
func NeverReuse() ReusePolicy { return ReusePolicy{Kind: PolicyNever} }

// clocked reports whether the policy runs the clock.
func (p ReusePolicy) clocked() bool {
	return p.Kind == PolicyInterval || p.Kind == PolicyGC
}

// ParsePolicySpec parses a reuse-policy spec string:
//
//	never
//	on-exhaustion
//	interval[=N][,watermark=P][,pooldestroy][,minfreed=F][,cooldown=C]
//	gc[=N][,watermark=P][,pooldestroy][,minfreed=F][,cooldown=C]
//
// A bare interval or gc leaves Interval zero (DefaultInterval). The grammar
// round-trips exactly through PolicySpecString.
func ParsePolicySpec(spec string) (ReusePolicy, error) {
	bad := func(f string, args ...any) (ReusePolicy, error) {
		return ReusePolicy{}, fmt.Errorf("core: bad policy spec %q: %s", spec, fmt.Sprintf(f, args...))
	}
	switch spec {
	case "never":
		return ReusePolicy{Kind: PolicyNever}, nil
	case "on-exhaustion":
		return ReusePolicy{Kind: PolicyOnExhaustion}, nil
	}
	var p ReusePolicy
	for i, part := range strings.Split(spec, ",") {
		key, val, hasVal := strings.Cut(part, "=")
		n, err := strconv.ParseUint(val, 10, 64)
		switch {
		case i == 0 && (key == "interval" || key == "gc"):
			p.Kind = PolicyInterval
			if key == "gc" {
				p.Kind = PolicyGC
			}
			if hasVal && (err != nil || n == 0) {
				return bad("%s=N must be a positive integer", key)
			}
			p.Interval = n
		case i == 0:
			return bad("want never, on-exhaustion, or interval|gc[=N][,watermark=P][,pooldestroy][,minfreed=F][,cooldown=C]")
		case key == "watermark" && hasVal:
			if err != nil || n == 0 {
				return bad("watermark must be a positive page count")
			}
			p.WatermarkPages = n
		case key == "pooldestroy" && !hasVal:
			p.OnPoolDestroy = true
		case key == "minfreed" && hasVal:
			if err != nil {
				return bad("minfreed must be a page count")
			}
			p.MinFreedPages = n
		case key == "cooldown" && hasVal:
			if err != nil {
				return bad("cooldown must be an allocation count")
			}
			p.CooldownAllocs = n
		default:
			return bad("unknown option %q", part)
		}
	}
	return p, nil
}

// PolicySpecString renders a policy in the ParsePolicySpec grammar,
// canonically: zero fields are omitted, so a bare interval or gc is a zero
// Interval.
func PolicySpecString(p ReusePolicy) string {
	var b strings.Builder
	switch p.Kind {
	case PolicyOnExhaustion:
		return "on-exhaustion"
	case PolicyInterval:
		b.WriteString("interval")
	case PolicyGC:
		b.WriteString("gc")
	default:
		return "never"
	}
	if p.Interval > 0 {
		fmt.Fprintf(&b, "=%d", p.Interval)
	}
	if p.WatermarkPages > 0 {
		fmt.Fprintf(&b, ",watermark=%d", p.WatermarkPages)
	}
	if p.OnPoolDestroy {
		b.WriteString(",pooldestroy")
	}
	if p.MinFreedPages > 0 {
		fmt.Fprintf(&b, ",minfreed=%d", p.MinFreedPages)
	}
	if p.CooldownAllocs > 0 {
		fmt.Fprintf(&b, ",cooldown=%d", p.CooldownAllocs)
	}
	return b.String()
}

// tick is the policy clock's allocation-interval and watermark check, run at
// Alloc and Free entry for the clocked kinds.
func (r *Remapper) tick() {
	p := &r.policy
	switch {
	case r.allocSeq-r.lastCycleAlloc >= p.Interval && r.allocSeq > 0:
		r.fire(GCTriggerInterval)
	case p.WatermarkPages > 0 && r.proc.Space().ReservedPages()-r.lastCycleReserved >= p.WatermarkPages:
		r.fire(GCTriggerWatermark)
	}
}

// fire applies the tuning gates and, unless one holds, runs the policy's
// action: a reclaim of every freed run, or a collector cycle audited by
// HealthCheck. The clock resets either way, so a gated trigger re-arms
// rather than retrying on every allocation.
func (r *Remapper) fire(trigger GCTrigger) {
	p := &r.policy
	gated := r.stats.ShadowPagesFreed < p.MinFreedPages ||
		(p.CooldownAllocs > 0 && r.fired && r.allocSeq-r.lastCycleAlloc < p.CooldownAllocs)
	r.lastCycleAlloc = r.allocSeq
	r.lastCycleReserved = r.proc.Space().ReservedPages()
	if gated {
		return
	}
	r.fired = true
	if p.Kind == PolicyInterval {
		r.reclaimFreed()
		return
	}
	r.collect(trigger)
	r.stats.GCScheduled++
	if r.schedErr == nil {
		r.schedErr = r.HealthCheck()
	}
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
