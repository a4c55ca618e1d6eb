package core

import (
	"repro/internal/obs"
	"repro/internal/sim/vm"
)

// Observability for the remapper layer: assembly of the forensic TrapReport
// a detected dangling use carries, and registration of the remapper's
// counters into an obs.Registry.

// buildReport assembles the TrapReport for a detected dangling use of obj.
// It reads the meter after the trap charge, so TrapCycles includes the
// delivery cost of the trap being reported, exactly as a real handler
// sampling a cycle counter would see it.
func (r *Remapper) buildReport(obj *Object, fault *vm.Fault, useSite string, offset int64) *obs.TrapReport {
	kind := obs.TrapRead
	switch {
	case offset < 0:
		kind = obs.TrapDoubleFree
	case fault.Access == vm.AccessWrite:
		kind = obs.TrapWrite
	}
	now := r.proc.Meter().Cycles()
	var since uint64
	if now > obj.FreeCycles {
		since = now - obj.FreeCycles
	}
	rep := &obs.TrapReport{
		Kind:       kind,
		UseSite:    useSite,
		AllocSite:  obj.AllocSite,
		FreeSite:   obj.FreeSite,
		ObjectSeq:  obj.AllocSeq,
		ObjectSize: obj.UserSize,
		State:      obj.State.String(),
		Offset:     offset,
		PageOffset: uint64(fault.Addr) % vm.PageSize,
		FaultAddr:  uint64(fault.Addr),
		ShadowAddr: uint64(obj.ShadowAddr),
		// The canonical view of the faulting byte: the allocator's
		// pointer is the header word, the user object starts one header
		// past it.
		CanonAddr:       uint64(obj.CanonAddr) + remapHeaderSize + uint64(offset),
		FreeCycles:      obj.FreeCycles,
		TrapCycles:      now,
		CyclesSinceFree: since,
	}
	if obj.Pool != nil {
		rep.Pool = obj.Pool.Name()
		rep.PoolID = obj.Pool.ID()
	}
	// Ship the event history that led to the trap: the flight recorder
	// holds the last-N allocs/frees/syscalls/faults/GC/degradations, so
	// the report's reader can see what happened just before the use. The
	// window shares its events with the process's earlier reports.
	rep.Flight = r.proc.Flight().Window()
	return rep
}

// RegisterMetrics registers the remapper's counters on reg. All series are
// function-backed reads of the live Stats, so registration is done once up
// front and snapshots observe current values.
func (r *Remapper) RegisterMetrics(reg *obs.Registry) {
	s := &r.stats
	reg.CounterFunc("pg_allocs_total", "shadow-protected allocations",
		func() uint64 { return s.Allocs })
	reg.CounterFunc("pg_frees_total", "shadow-protected frees",
		func() uint64 { return s.Frees })
	reg.CounterFunc("pg_dangling_detected_total", "dangling pointer uses detected",
		func() uint64 { return s.DanglingDetected })
	reg.CounterFunc("pg_overflows_detected_total", "guard-page overflow hits",
		func() uint64 { return s.OverflowsDetected })
	reg.GaugeFunc("pg_shadow_pages_live", "shadow pages of live objects",
		func() float64 { return float64(s.ShadowPagesLive) })
	reg.GaugeFunc("pg_shadow_pages_freed", "protected shadow pages of freed objects",
		func() float64 { return float64(s.ShadowPagesFreed) })
	reg.CounterFunc("pg_recycled_pages_total", "shadow pages recycled under a reuse policy",
		func() uint64 { return s.RecycledPages })
	reg.CounterFunc("pg_gc_runs_total", "conservative-GC reclamation runs",
		func() uint64 { return s.GCRuns })
	reg.CounterFunc("pg_gc_scheduled_total", "conservative-GC cycles run by the scheduler",
		func() uint64 { return s.GCScheduled })
	reg.CounterFunc("pg_gc_scanned_words_total", "words visited by conservative-GC scans",
		func() uint64 { return s.GCScannedWords })
	reg.CounterFunc("pg_gc_cycle_cost_cycles_total", "cycles charged for conservative-GC scans",
		func() uint64 { return s.GCCycleCost })
	reg.CounterFunc("pg_double_frees_total", "detected frees of already-freed objects",
		func() uint64 { return s.DoubleFrees })
	reg.CounterFunc("pg_missed_detections_total", "ground-truth stale uses the detector missed",
		func() uint64 { return s.MissedDetections })
	reg.CounterFunc("pg_elided_allocs_total", "allocations elided by static proof",
		func() uint64 { return s.ElidedAllocs })
	reg.CounterFunc("pg_elision_misses_total", "frees contradicting an elision proof",
		func() uint64 { return s.ElisionMisses })
	reg.CounterFunc("pg_transient_retries_total", "syscall retries after transient failures",
		func() uint64 { return s.TransientRetries })
	reg.CounterFunc("pg_degraded_allocs_total", "allocations degraded to unprotected",
		func() uint64 { return s.DegradedAllocs })
	reg.CounterFunc("pg_degraded_frees_total", "frees of degraded allocations",
		func() uint64 { return s.DegradedFrees })
	reg.CounterFunc("pg_unprotected_frees_total", "frees left unprotected after mprotect failure",
		func() uint64 { return s.UnprotectedFrees })
	reg.GaugeFunc("pg_pending_protect", "freed objects awaiting batched protection",
		func() float64 { return float64(len(r.pending)) })
	// The sampling tier's series exist only when sampling is enabled, so an
	// unsampled process's metrics output — and everything derived from it —
	// is byte-identical to what it was before the tier existed.
	if r.sampling != nil {
		reg.CounterFunc("pg_sampling_sampled_allocs_total", "allocations the sampling tier guarded",
			func() uint64 { return s.SampledAllocs })
		reg.CounterFunc("pg_sampling_unsampled_allocs_total", "allocations handed out unguarded by the sampling tier",
			func() uint64 { return s.UnsampledAllocs })
		reg.CounterFunc("pg_sampling_unsampled_frees_total", "frees of unsampled allocations",
			func() uint64 { return s.UnsampledFrees })
		reg.GaugeFunc("pg_sampling_quarantine_live", "sampled freed objects currently quarantined",
			func() float64 { return float64(len(r.sampling.quarantine)) })
		reg.CounterFunc("pg_sampling_quarantine_evictions_total", "sampled freed objects evicted from the quarantine",
			func() uint64 { return s.SamplingQuarantineEvictions })
		reg.CounterFunc("pg_sampling_site_heats_total", "adaptive-rate resets after traps",
			func() uint64 { return s.SamplingSiteHeats })
		reg.CounterFunc("pg_sampling_site_cools_total", "adaptive-rate interval doublings on trap-free sites",
			func() uint64 { return s.SamplingSiteCools })
	}
}
