package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sim/vm"
)

// gcWordCost is the per-word scan cost charged by the collector.
const gcWordCost = 2

// GCTrigger records why a collector cycle ran.
type GCTrigger uint8

// Triggers.
const (
	// GCTriggerManual is an explicit CollectGarbage call.
	GCTriggerManual GCTrigger = iota + 1
	// GCTriggerInterval fired because Interval allocations elapsed since
	// the policy clock last fired.
	GCTriggerInterval
	// GCTriggerWatermark fired because fresh VA reservations grew by
	// WatermarkPages since the policy clock last fired.
	GCTriggerWatermark
	// GCTriggerPoolDestroy fired from OnPoolDestroy.
	GCTriggerPoolDestroy
)

// String implements fmt.Stringer.
func (t GCTrigger) String() string {
	switch t {
	case GCTriggerManual:
		return "manual"
	case GCTriggerInterval:
		return "interval"
	case GCTriggerWatermark:
		return "watermark"
	case GCTriggerPoolDestroy:
		return "pooldestroy"
	default:
		return fmt.Sprintf("trigger(%d)", uint8(t))
	}
}

// GCCycle is one collector cycle's accounting record.
type GCCycle struct {
	// Seq is the cycle's ordinal (1-based, equals Stats.GCRuns after it).
	Seq uint64
	// Trigger is why the cycle ran.
	Trigger GCTrigger
	// AllocSeq is the allocation counter when the cycle started.
	AllocSeq uint64
	// ScannedWords is the number of root/heap words visited.
	ScannedWords uint64
	// Cycles is the scan cost charged through the kernel (ScannedWords x
	// the per-word price); summing the log equals GCChargedCycles.
	Cycles uint64
	// PagesRecycled and ObjectsRecycled count what the cycle reclaimed.
	PagesRecycled   uint64
	ObjectsRecycled uint64
	// ReservedPages is the fresh-VA watermark when the cycle finished.
	ReservedPages uint64
}

// GCCycleLog returns a copy of every collector cycle's accounting record,
// clocked and manual alike, in execution order.
func (r *Remapper) GCCycleLog() []GCCycle {
	out := make([]GCCycle, len(r.gcLog))
	copy(out, r.gcLog)
	return out
}

// SchedulerHealthErr returns the first HealthCheck violation observed after
// a cycle the policy clock ran, or nil. A clock that corrupts bookkeeping
// must not fail silently between explicit audits.
func (r *Remapper) SchedulerHealthErr() error { return r.schedErr }

// CollectGarbage runs the §3.4 conservative collector: it scans the live
// heap (every live object in every live pool, plus the stack and globals)
// for word values that look like pointers into freed objects' shadow
// pages. Freed shadow runs with no such incoming pointer are recycled; runs
// that are still referenced are kept protected, so the pointers that
// actually dangle keep trapping.
//
// The paper argues this is much cheaper than GC-for-memory-management: it
// runs infrequently, and "by knowing which pools need to be collected, the
// collector can use this information to traverse only a subset of the heap".
// We exploit the same structure: only pools whose dynamic points-to sets can
// reach a pool with freed shadow pages need scanning; with the default
// simulation configuration that is every live pool, which is still only the
// live data, never the freed data.
//
// Returns the number of shadow pages recycled.
func (r *Remapper) CollectGarbage() uint64 {
	c := r.collect(GCTriggerManual)
	return c.PagesRecycled
}

// collect runs one collector cycle and returns its accounting record. The
// scan cost (gcWordCost per visited word) is charged once, at cycle end,
// through the kernel's accounted ChargeGC path under a per-trigger site
// label — batching the identical per-word total into a single charge keeps
// simulated cycle totals unchanged while making the cost attributable
// (Profile gc_cycles) and auditable (KernelChargedCycles).
func (r *Remapper) collect(trigger GCTrigger) GCCycle {
	r.stats.GCRuns++
	rec := GCCycle{
		Seq:      r.stats.GCRuns,
		Trigger:  trigger,
		AllocSeq: r.allocSeq,
	}
	tr := r.proc.Tracer()
	gcSpan := tr.Begin("gc-cycle", "gc:"+trigger.String())
	defer func() {
		tr.End(gcSpan)
		rec.ReservedPages = r.proc.Space().ReservedPages()
		r.gcLog = append(r.gcLog, rec)
		r.proc.Flight().Record(obs.FlightEvent{
			Cycles: r.proc.Meter().Cycles(), Kind: obs.FlightGC,
			What: trigger.String(), Site: r.proc.Site(), Pages: rec.PagesRecycled,
		})
	}()

	if len(r.freedNoPool) == 0 && len(r.freedInPool) == 0 {
		return rec
	}

	// Mark every freed object a scanned word points into, through the
	// shadow-page index.
	marked := make(map[*Object]bool)
	mark := func(word uint64) {
		if obj := r.lookup(vm.PageOf(word)); obj != nil && obj.State == StateFreed {
			marked[obj] = true
		}
	}

	// Scan live objects of live pools. Live objects are the only heap
	// words the program can still read, so they are the only heap roots.
	//
	// A conservative collector must over-approximate roots: every aligned
	// word that overlaps [start, end) is visited, with the read clamped to
	// the bytes inside the range. Clamping matters at both edges — the scan
	// must not read memory below an unaligned start (those bytes belong to
	// someone else), and it must not skip the final partial word of an
	// odd-sized range (a pointer held in the last <8 bytes of an object is
	// still a root; dropping it would recycle a still-referenced shadow run
	// and silently miss the detection).
	mmu := r.proc.MMU()
	var words uint64
	scanRange := func(start, end vm.Addr) {
		for a := start &^ 7; a < end; a += 8 {
			lo, hi := a, a+8
			if lo < start {
				lo = start
			}
			if hi > end {
				hi = end
			}
			var buf [8]byte
			if err := mmu.PeekBytes(lo, buf[:hi-lo]); err != nil {
				continue
			}
			words++
			mark(binary.LittleEndian.Uint64(buf[:]))
		}
	}
	livePools := make([]*pool.Pool, 0, len(r.byPool))
	for p := range r.byPool {
		livePools = append(livePools, p)
	}
	sort.Slice(livePools, func(i, j int) bool { return livePools[i].ID() < livePools[j].ID() })
	for _, p := range livePools {
		objs := r.byPool[p]
		if p.Destroyed() {
			continue
		}
		for _, obj := range objs {
			if obj.State == StateLive {
				scanRange(obj.ShadowAddr, obj.ShadowAddr+obj.UserSize)
			}
		}
	}
	for _, obj := range r.liveNoPoolObjects() {
		scanRange(obj.ShadowAddr, obj.ShadowAddr+obj.UserSize)
	}
	// The stack and globals segments are always roots: a dangling pointer
	// held in a local variable or a global must keep its shadow pages
	// protected.
	scanRange(r.proc.StackBase(), r.proc.StackLimit())
	gBase, gNext := r.proc.GlobalsRange()
	scanRange(gBase, gNext)

	// One batched charge for the whole scan, under a per-trigger site
	// label, through the kernel's single charge point.
	cycles := words * gcWordCost
	prev := r.proc.SetSite("gc:" + trigger.String())
	r.proc.ChargeGC(cycles)
	r.proc.SetSite(prev)
	r.stats.GCScannedWords += words
	r.stats.GCCycleCost += cycles
	rec.ScannedWords = words
	rec.Cycles = cycles

	// Recycle unmarked freed runs. Quarantined sampled objects are exempt
	// even when unreferenced: the sampling tier's quarantine delays their
	// release by policy.
	rec.PagesRecycled, rec.ObjectsRecycled = r.sweepFreed(RecycledByGC, func(obj *Object) bool {
		return marked[obj] || obj.Quarantined
	})
	return rec
}

// liveNoPoolObjects returns live direct-mode objects (not owned by a pool),
// sorted by ShadowAddr: the index walk is ascending by shadow page and an
// object's entries are contiguous, so each object appears once, in address
// order. A stable order keeps the root-scan order — and with it cycle
// charging and any future diagnostics — bit-for-bit reproducible, matching
// the freedPoolsSorted/livePools treatment above.
func (r *Remapper) liveNoPoolObjects() []*Object {
	var out []*Object
	r.objects.ForEach(func(_ vm.VPN, _ uint64, obj *Object, _ uint64) bool {
		if obj.Pool == nil && obj.State == StateLive && (len(out) == 0 || out[len(out)-1] != obj) {
			out = append(out, obj)
		}
		return true
	})
	return out
}

// RecycledRuns returns the remapper-local free list (test and stats hook).
func (r *Remapper) RecycledRuns() []pool.PageRun {
	out := make([]pool.PageRun, len(r.recycled))
	copy(out, r.recycled)
	return out
}
