package kernel

import (
	"fmt"

	"repro/internal/obs"
)

// Kernel-side observability: per-syscall cycle accounting, the scoped site
// label that attributes every kernel charge to an allocation site, and the
// registration of kernel metrics into an obs.Registry.
//
// The attribution is recorded at the charge point — the only place that
// knows both the syscall kind and its cycle price — under whatever site
// label the layer above has scoped with SetSite. Charges outside any scope
// land in obs.UntrackedSite. Because every syscall and runtime-delivered
// trap goes through exactly one charge point, the per-site profile sums to
// the kernel's total charged cycles by construction; KernelChargedCycles
// exposes the right-hand side of that invariant.

// SysDummy labels the no-op syscall of the PA+dummy-syscalls instrument in
// syscall accounting. It is never fallible (no checkInject) and cannot be
// named in fault schedules.
const SysDummy SyscallKind = numSyscallKinds

// numAccountedKinds sizes the per-kind accounting arrays (fallible kinds
// plus SysDummy).
const numAccountedKinds = int(numSyscallKinds) + 1

// syscallCycleBuckets are the fixed histogram buckets for per-syscall cycle
// costs under the default model: 1200 entry cycles + 40/page, so the
// buckets resolve 1..128 touched pages.
var syscallCycleBuckets = []uint64{1240, 1280, 1360, 1520, 1840, 2480, 3760, 6320}

// category maps a syscall kind to its attribution category.
func (k SyscallKind) category() obs.Category {
	switch k {
	case SysMremap:
		return obs.CatRemap
	case SysMprotect, SysMprotectRuns:
		return obs.CatProtect
	case SysDummy:
		return obs.CatDummy
	default:
		return obs.CatMap
	}
}

// accountedKinds lists every kind that appears in syscall accounting, in
// registration order.
func accountedKinds() []SyscallKind {
	return []SyscallKind{SysMmap, SysMremap, SysMprotect, SysMprotectRuns, SysDummy}
}

// SetSite scopes subsequent kernel charges to an allocation-site label for
// cycle attribution, returning the previous label so callers can restore
// it:
//
//	prev := proc.SetSite(site)
//	defer proc.SetSite(prev)
//
// An empty label attributes to obs.UntrackedSite.
func (p *Process) SetSite(site string) (prev string) {
	prev = p.site
	p.site = site
	return prev
}

// Site returns the current attribution label.
func (p *Process) Site() string { return p.site }

// Profile returns the process's per-site cycle attribution profile, or nil
// when the process was made without Config.SiteProfile.
func (p *Process) Profile() *obs.SiteProfile { return p.prof }

// SetTracer installs (or, with nil, removes) the span tracer. Installing a
// tracer changes no simulated number: spans only observe the cycles the
// charge points were recording anyway.
func (p *Process) SetTracer(t *obs.Tracer) { p.tracer = t }

// Tracer returns the installed span tracer, or nil when tracing is
// disabled.
func (p *Process) Tracer() *obs.Tracer { return p.tracer }

// Flight returns the process's always-on flight recorder.
func (p *Process) Flight() *obs.FlightRecorder { return p.flight }

// chargeSyscall charges one syscall of the given kind touching pages pages:
// the meter price, the per-kind accounting, the site attribution — and the
// leaf span, whose duration is by construction exactly the cycles charged
// here — all happen here so they can never disagree.
func (p *Process) chargeSyscall(kind SyscallKind, pages uint64) {
	start := p.meter.Cycles()
	p.meter.ChargeSyscall(pages)
	cycles := p.meter.Model().Syscall + pages*p.meter.Model().SyscallPage
	i := int(kind)
	p.sysCounts[i]++
	p.sysCycles[i] += cycles
	p.sysPages[i] += pages
	if p.sysHist[i] == nil {
		p.sysHist[i] = obs.NewHistogram(syscallCycleBuckets)
	}
	p.sysHist[i].Observe(cycles)
	p.prof.AddSyscall(p.site, kind.category(), cycles)
	if p.tracer != nil {
		p.tracer.Leaf("sys:"+kind.String(), p.site, start, start+cycles)
	}
	p.flight.Record(obs.FlightEvent{
		Cycles: start + cycles, Kind: obs.FlightSyscall, What: kind.String(),
		Site: p.site, Pages: pages,
	})
}

// ChargeTrap charges one protection-fault delivery through the kernel's
// accounting (price, trap-cycle total, site attribution). The run-time
// system's fault handler calls this instead of the bare meter so traps
// appear in the per-site profile.
func (p *Process) ChargeTrap() {
	start := p.meter.Cycles()
	p.meter.ChargeTrap()
	cycles := p.meter.Model().Trap
	p.trapCycles += cycles
	p.prof.AddTrap(p.site, cycles)
	p.tracer.Leaf("trap", p.site, start, start+cycles)
	p.flight.Record(obs.FlightEvent{
		Cycles: start + cycles, Kind: obs.FlightTrap, Site: p.site,
	})
}

// ChargeGC charges the scan cost of one conservative-GC cycle through the
// kernel's accounting (meter, GC-cycle total, site attribution). The
// collector batches its per-word scan cost into one charge per cycle; like
// chargeSyscall, having the meter price and the attribution recorded at the
// same point keeps Profile.TotalCycles() == KernelChargedCycles() exact.
func (p *Process) ChargeGC(cycles uint64) {
	if cycles == 0 {
		return
	}
	start := p.meter.Cycles()
	p.meter.ChargeRaw(cycles)
	p.gcCycles += cycles
	p.prof.AddGC(p.site, cycles)
	p.tracer.Leaf("gc", p.site, start, start+cycles)
}

// SyscallStat is one syscall kind's accounting totals.
type SyscallStat struct {
	Call   SyscallKind
	Count  uint64
	Pages  uint64
	Cycles uint64
}

// SyscallStats returns the per-kind syscall accounting, in fixed order,
// including kinds with zero activity.
func (p *Process) SyscallStats() []SyscallStat {
	out := make([]SyscallStat, 0, numAccountedKinds)
	for _, k := range accountedKinds() {
		i := int(k)
		out = append(out, SyscallStat{
			Call: k, Count: p.sysCounts[i], Pages: p.sysPages[i], Cycles: p.sysCycles[i],
		})
	}
	return out
}

// KernelChargedCycles returns the total cycles the kernel charged for
// syscalls and runtime-delivered traps — the reference value the per-site
// attribution profile must sum to exactly.
func (p *Process) KernelChargedCycles() uint64 {
	var n uint64
	for _, c := range p.sysCycles {
		n += c
	}
	return n + p.trapCycles + p.gcCycles
}

// TrapCycles returns the cycles charged for runtime-delivered traps.
func (p *Process) TrapCycles() uint64 { return p.trapCycles }

// GCChargedCycles returns the cycles charged for conservative-GC scan work.
func (p *Process) GCChargedCycles() uint64 { return p.gcCycles }

// RegisterMetrics registers the kernel layer's metrics on r: per-syscall
// counters, page and cycle totals, per-syscall cycle histograms, meter
// totals, and the fault injector's event counters. All series are
// function-backed, so one registration before the run exposes final values
// at snapshot time.
func (p *Process) RegisterMetrics(r *obs.Registry) {
	for _, k := range accountedKinds() {
		i := int(k)
		kind := k // capture
		label := fmt.Sprintf("{call=%q}", k.String())
		r.CounterFunc("pg_syscalls_total"+label,
			"memory-management syscalls by kind",
			func() uint64 { return p.sysCounts[int(kind)] })
		r.CounterFunc("pg_syscall_cycles_total"+label,
			"cycles charged to syscalls by kind",
			func() uint64 { return p.sysCycles[int(kind)] })
		r.CounterFunc("pg_syscall_pages_total"+label,
			"pages touched by syscalls by kind",
			func() uint64 { return p.sysPages[int(kind)] })
		if p.sysHist[i] == nil {
			p.sysHist[i] = obs.NewHistogram(syscallCycleBuckets)
		}
		r.AttachHistogram("pg_syscall_cycles"+label,
			"per-call cycle cost distribution by kind", p.sysHist[i])
	}
	r.CounterFunc("pg_cycles_total", "total simulated cycles",
		func() uint64 { return p.meter.Cycles() })
	r.CounterFunc("pg_instrs_total", "instructions executed",
		func() uint64 { return p.meter.Instrs() })
	r.CounterFunc("pg_mem_accesses_total", "memory accesses",
		func() uint64 { return p.meter.MemAccesses() })
	r.CounterFunc("pg_traps_total", "protection traps delivered",
		func() uint64 { return p.meter.Traps() })
	r.CounterFunc("pg_trap_cycles_total", "cycles charged to trap delivery",
		func() uint64 { return p.trapCycles })
	r.CounterFunc("pg_gc_charged_cycles_total", "cycles charged to conservative-GC scan work",
		func() uint64 { return p.gcCycles })
	r.GaugeFunc("pg_reserved_vpages", "virtual pages reserved",
		func() float64 { return float64(p.space.ReservedPages()) })
	r.GaugeFunc("pg_va_budget_pages", "configured fresh-VA budget (0 = architectural limit only)",
		func() float64 { return float64(p.space.BudgetPages()) })

	for _, k := range []SyscallKind{SysMmap, SysMremap, SysMprotect, SysMprotectRuns} {
		kind := k
		r.CounterFunc(fmt.Sprintf("pg_injected_faults_total{call=%q}", k.String()),
			"injected syscall failures by kind",
			func() uint64 {
				var n uint64
				for _, ev := range p.InjectedFaults() {
					if ev.Call == kind {
						n++
					}
				}
				return n
			})
	}
}
