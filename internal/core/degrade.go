package core

import (
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

// Graceful degradation under syscall failure. A production server cannot
// treat a transient ENOMEM from mremap or mprotect as fatal: the degradation
// ladder is (1) retry the syscall a bounded number of times with charged
// exponential backoff; (2) if allocation-side protection still cannot be
// established, fall back to handing out the canonical address unprotected
// (the object behaves exactly as under the native allocator, and
// Stats.DegradedAllocs records the lost coverage); (3) if deallocation-side
// protection fails persistently, the object's shadow pages are dropped from
// tracking without PROT_NONE (Stats.UnprotectedFrees) — availability is
// preserved and the detection guarantee is narrowed, never the reverse.
// This mirrors the recover-and-continue posture of GWP-ASan and CAMP:
// degrade protection, not the service.

// RetryConfig bounds the transient-failure retry loop.
type RetryConfig struct {
	// MaxRetries is the number of re-attempts after the first failure.
	MaxRetries int
	// BackoffCycles is charged to the meter before the first retry and
	// doubles on each subsequent one, modelling the wait a real runtime
	// would insert before re-trying the kernel.
	BackoffCycles uint64
}

// DefaultRetryConfig is the remapper's default ladder: 3 retries starting at
// a 256-cycle backoff (256, 512, 1024).
func DefaultRetryConfig() RetryConfig {
	return RetryConfig{MaxRetries: 3, BackoffCycles: 256}
}

// retryTransient runs op, retrying up to MaxRetries times while it keeps
// failing with a transient injected syscall error. Each retry charges
// exponentially growing backoff cycles. Non-syscall errors, persistent
// (budget) syscall errors, and success all return immediately.
func (r *Remapper) retryTransient(op func() error) error {
	err := op()
	for attempt := 0; attempt < r.retry.MaxRetries && err != nil; attempt++ {
		var se *kernel.SyscallError
		if !errors.As(err, &se) || !se.Transient {
			return err
		}
		r.stats.TransientRetries++
		r.proc.Flight().Record(obs.FlightEvent{
			Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightDegrade,
			What: "retry", Site: r.proc.Site(),
		})
		r.proc.Meter().ChargeRaw(r.retry.BackoffCycles << uint(attempt))
		err = op()
	}
	return err
}

// dropUnprotected retires an object whose free-time mprotect failed
// persistently: its shadow pages stay mapped RW (aliased to canonical frames
// the allocator will reuse), so the object leaves the tracking maps and the
// detection guarantee no longer covers it. The run stays attached to its
// pool — pool destroy releases the pages as usual.
func (r *Remapper) dropUnprotected(obj *Object) {
	r.retire(obj, RecycledByUnprotected)
	r.stats.UnprotectedFrees++
	r.proc.Flight().Record(obs.FlightEvent{
		Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightDegrade,
		What: "unprotected-free", Site: r.proc.Site(),
		Obj: obj.AllocSeq, Addr: uint64(obj.ShadowAddr), Pages: obj.ShadowRun.Pages,
	})
}

// HealthError wraps a health-check violation together with the process's
// flight-recorder snapshot at audit time, so a corrupted-bookkeeping report
// ships with the event history that led to it. Error() returns the
// underlying violation's text unchanged.
type HealthError struct {
	Err    error
	Flight []obs.FlightEvent
}

// Error implements error.
func (e *HealthError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying violation to errors.Is/As.
func (e *HealthError) Unwrap() error { return e.Err }

// HealthCheck audits the remapper's internal invariants, returning the first
// violation found (as a *HealthError carrying the flight-recorder snapshot)
// or nil. The chaos harness runs it after every faulted connection:
// degradation must narrow coverage, never corrupt bookkeeping.
func (r *Remapper) HealthCheck() error {
	if err := r.healthCheck(); err != nil {
		return &HealthError{Err: err, Flight: r.proc.Flight().Snapshot()}
	}
	return nil
}

// healthCheck is the bare invariant audit.
func (r *Remapper) healthCheck() error {
	// (1) The index only holds live and freed objects, each entry inside
	// its object's run. (2) below counts each object's pages once, at the
	// entry that starts its run, so an index whose first page names
	// another object shows up as a counter mismatch.
	var err error
	var live, freed uint64
	r.objects.ForEach(func(start vm.VPN, n uint64, obj *Object, _ uint64) bool {
		base := vm.PageOf(obj.ShadowRun.Addr)
		switch {
		case obj.State != StateLive && obj.State != StateFreed:
			err = fmt.Errorf("core: health: %s object (alloc %s) still indexed at page %#x",
				obj.State, obj.AllocSite, uint64(start)<<vm.PageShift)
		case start < base || uint64(start-base) >= obj.ShadowRun.Pages:
			err = fmt.Errorf("core: health: page %#x indexed to object whose run is %#x/%d",
				uint64(start)<<vm.PageShift, obj.ShadowRun.Addr, obj.ShadowRun.Pages)
		case n > obj.ShadowRun.Pages-uint64(start-base):
			err = fmt.Errorf("core: health: page %#x indexed to object whose run is %#x/%d",
				uint64(base)<<vm.PageShift+obj.ShadowRun.Pages*vm.PageSize, obj.ShadowRun.Addr, obj.ShadowRun.Pages)
		case start != base:
		case obj.State == StateLive:
			live += obj.ShadowRun.Pages
		default:
			freed += obj.ShadowRun.Pages
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	// (2) Page counters match the indexed objects exactly.
	if live != r.stats.ShadowPagesLive {
		return fmt.Errorf("core: health: live shadow pages %d, counter says %d", live, r.stats.ShadowPagesLive)
	}
	if freed != r.stats.ShadowPagesFreed {
		return fmt.Errorf("core: health: freed shadow pages %d, counter says %d", freed, r.stats.ShadowPagesFreed)
	}
	// (3) Recycled free-list runs must be disjoint from indexed objects:
	// handing one out would alias a tracked object's pages.
	for _, run := range r.recycled {
		r.objects.ForEachIn(vm.PageOf(run.Addr), run.Pages, func(start vm.VPN, _ uint64, obj *Object, _ uint64) bool {
			err = fmt.Errorf("core: health: recycled run page %#x still indexed to %s object",
				uint64(start)<<vm.PageShift, obj.State)
			return false
		})
		if err != nil {
			return err
		}
	}
	// (4) No canonical-address record lies on a shadow page still indexed
	// to an object: Free would forward that shadow pointer to the
	// allocator as if it were canonical.
	for addr := range r.canon {
		if obj := r.lookup(vm.PageOf(addr)); obj != nil {
			return fmt.Errorf("core: health: canonical record %#x lies on a shadow page of %s object (alloc %s)",
				addr, obj.State, obj.AllocSite)
		}
	}
	// (5) Queued batch entries are freed (awaiting protection) or recycled
	// (retired while queued; Flush skips them) — never live.
	for _, obj := range r.pending {
		if obj.State == StateLive {
			return fmt.Errorf("core: health: live object (alloc %s) in protect queue", obj.AllocSite)
		}
	}
	// (6) The missed-detection ledger is consistent: an undetected stale
	// use of a still-protected object is a protection failure, not a
	// reuse-policy cost, and must never be counted (the ledger's
	// "never goes negative" direction).
	if r.ledger.Inconsistent != 0 {
		return fmt.Errorf("core: health: %d stale uses of still-protected objects went undetected", r.ledger.Inconsistent)
	}
	// (7) Counters derived from the ledger and the cycle log agree.
	if r.stats.MissedDetections != r.ledger.Missed {
		return fmt.Errorf("core: health: missed-detection counter %d, ledger says %d", r.stats.MissedDetections, r.ledger.Missed)
	}
	var logCycles uint64
	for i := range r.gcLog {
		logCycles += r.gcLog[i].Cycles
	}
	if logCycles != r.stats.GCCycleCost {
		return fmt.Errorf("core: health: GC cycle log sums to %d cycles, counter says %d", logCycles, r.stats.GCCycleCost)
	}
	if kern := r.proc.GCChargedCycles(); kern != r.stats.GCCycleCost {
		return fmt.Errorf("core: health: kernel charged %d GC cycles, remapper counted %d", kern, r.stats.GCCycleCost)
	}
	return nil
}
