// Package pageguard is the public API of the PageGuard library: a
// reproduction of "Efficiently Detecting All Dangling Pointer Uses in
// Production Servers" (Dhurjati & Adve, DSN 2006).
//
// PageGuard detects every use of a pointer to freed heap memory — reads,
// writes, and double frees — by giving each allocation its own shadow
// virtual page(s) aliased to the allocator's physical memory, and letting
// the (simulated) MMU trap accesses after free. Automatic Pool Allocation
// recycles the virtual address space of short-lived data structures, making
// the scheme viable for long-running servers.
//
// Two ways to use it:
//
//   - Direct mode (the paper's "directly on the binaries" §1.1): create a
//     Machine and a Process, then Malloc/Free/Read/Write through the
//     detector. No compiler involvement, no virtual-address reuse.
//   - Compiler mode: compile a mini-C program with Compile (which applies
//     the Automatic Pool Allocation transformation) and Run it under any
//     Mode; dangling uses surface as *DanglingError with full allocation and
//     free provenance.
//
// The paper's evaluation (Tables 1-3, the §4.3 address-space study, the
// §3.4 exhaustion bound) is reproduced by the experiment wrappers in
// experiments.go and the benchmarks in the repository root.
package pageguard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

// PageSize is the simulated virtual-memory page size.
const PageSize = vm.PageSize

// DanglingError is the detector's report of a dangling pointer use. It
// carries the faulting access, the object's allocation and free sites, and
// the offset of the access within the object.
type DanglingError = core.DanglingError

// OverflowError is the report of a sequential buffer overflow caught by an
// overflow guard page (see WithOverflowGuards).
type OverflowError = core.OverflowError

// DoubleFreeError is the first-class report of a free of an already-freed
// object, carrying both free sites; it unwraps to its DanglingError.
type DoubleFreeError = core.DoubleFreeError

// ErrAddressSpaceExhausted is the sentinel the simulated VM reports once
// fresh virtual address space runs out — at the architectural 47-bit limit
// or at an injected WithVABudget cap. Under the never-reuse policy it
// propagates out of Malloc: that failure is the cliff the §3.4 mitigations
// exist to survive.
var ErrAddressSpaceExhausted = vm.ErrAddressSpaceExhausted

// ReusePolicy is the whole §3.4 configuration for recycling the shadow pages
// of long-lived allocations: the strategy and, for the interval and GC
// kinds, the one clock (interval, VA watermark, pool destroy, tuning gates)
// that says when.
type ReusePolicy = core.ReusePolicy

// GCCycle is one collector cycle's accounting record.
type GCCycle = core.GCCycle

// GCTrigger records why a collector cycle ran.
type GCTrigger = core.GCTrigger

// MissLedger is the ground-truth missed-detection meter.
type MissLedger = core.MissLedger

// ObjectRecord is the detector's record of one allocation (diagnostics and
// ground-truth harnesses).
type ObjectRecord = core.Object

// Reuse policy constructors.
var (
	// NeverReuse is the paper's measured configuration: the absolute
	// detection guarantee; only whole-pool reuse (which is compiler-safe)
	// recycles address space.
	NeverReuse = core.NeverReuse
)

// Policy kinds for building a custom ReusePolicy.
const (
	PolicyNever        = core.PolicyNever
	PolicyOnExhaustion = core.PolicyOnExhaustion
	PolicyInterval     = core.PolicyInterval
	PolicyGC           = core.PolicyGC
)

// Option configures a Machine.
type Option func(*machineConfig)

type machineConfig struct {
	kernel kernel.Config
	// detector is what every remapper on the machine runs with: reuse
	// policy, overflow guards, sampling.
	detector core.Config
	spans    bool
	// specErr is the first malformed option spec, reported by the next
	// process a Machine makes.
	specErr error
}

// WithMaxFrames bounds simulated physical memory in 4 KB frames (0 =
// unlimited). Useful to reproduce out-of-memory behaviour.
func WithMaxFrames(frames uint64) Option {
	return func(c *machineConfig) { c.kernel.MaxFrames = frames }
}

// WithReusePolicy selects the shadow-page reuse policy for processes created
// on this machine. It is WithPolicySpec(core.PolicySpecString(p)).
func WithReusePolicy(p ReusePolicy) Option {
	return func(c *machineConfig) { c.detector.Policy = p }
}

// WithOverflowGuards reserves a never-mapped guard page after every
// allocation's shadow block, so sequential overflows that run off the
// object's last page are reported as *OverflowError (a PageHeap-style
// debugging extension; costs address space, never physical memory).
func WithOverflowGuards() Option {
	return func(c *machineConfig) { c.detector.Guards = true }
}

// WithStackPages sets the per-process stack size in pages.
func WithStackPages(pages uint64) Option {
	return func(c *machineConfig) { c.kernel.StackPages = pages }
}

// WithVABudget caps the fresh virtual address space each process may ever
// reserve, in pages — a compressed model of the paper's §3.4 47-bit
// exhaustion cliff (0 = architectural limit only). The budget must cover
// the fixed stack and globals mappings.
func WithVABudget(pages uint64) Option {
	return func(c *machineConfig) { c.kernel.VABudgetPages = pages }
}

// WithPolicySpec configures the reuse policy from a core.ParsePolicySpec
// string: "never", "on-exhaustion", or "interval|gc[=N][,watermark=P]
// [,pooldestroy][,minfreed=F][,cooldown=C]". A malformed spec surfaces as an
// error from the next NewProcess or Program.Run call.
func WithPolicySpec(spec string) Option {
	return func(c *machineConfig) {
		policy, err := core.ParsePolicySpec(spec)
		if err != nil {
			c.specErr = err
			return
		}
		c.detector.Policy = policy
	}
}

// SamplingSpec configures the GWP-ASan-style sampled detection tier (see
// WithSampling).
type SamplingSpec = core.SamplingSpec

// ParseSamplingSpec parses a WithSampling spec string.
var ParseSamplingSpec = core.ParseSamplingSpec

// WithSampling enables the sampled detection tier from a
// core.ParseSamplingSpec string: "rate=N[,seed=S][,quarantine=Q][,cool=C]".
// 1-in-rate allocation sites are guarded (selected by a seeded site hash, so
// replays sample identically on every machine), sites that never trap cool
// down when cool is set, and the last quarantine sampled freed objects are
// exempt from shadow-page recycling. rate=1 guards every site and is
// bit-identical to the unsampled detector; rate=0 guards nothing. A
// malformed spec surfaces as an error from the next NewProcess or
// Program.Run call.
func WithSampling(spec string) Option {
	return func(c *machineConfig) {
		s, err := core.ParseSamplingSpec(spec)
		if err != nil {
			c.specErr = err
			return
		}
		c.detector.Sampling = &s
	}
}

// WithSpanTracing installs the deterministic span tracer on every process
// created on the machine: cycle-exact spans emitted at the kernel's single
// charge point (leaf spans whose summed durations reconcile exactly with
// ChargedCycles) grouped under alloc/free/GC operation spans. Tracing
// changes no simulated number — span timestamps only observe the cycles
// the charge points were recording anyway — and costs nothing when not
// enabled (the tracer pointer stays nil).
func WithSpanTracing() Option {
	return func(c *machineConfig) { c.spans = true }
}

// WithSiteProfile has every process created on the machine attribute its
// charged cycles to allocation sites (Process.Profile, RunResult.Profile,
// trace.Report.Profile). Attribution changes no simulated number; without
// this option the profile is nil and no process builds one.
func WithSiteProfile() Option {
	return func(c *machineConfig) { c.kernel.SiteProfile = true }
}

// FaultEvent is one injected syscall failure, in per-process order.
type FaultEvent = kernel.FaultEvent

// WithFaultSchedule injects deterministic syscall failures per the
// kernel.ParseSchedule format (e.g. "seed=7;mremap:prob=0.02"): the
// production-hardening test mode. Every process created on the machine draws
// its own reproducible fault stream from the schedule seed. An empty spec
// disables injection; a malformed spec surfaces as an error from the next
// NewProcess or Program.Run call.
func WithFaultSchedule(spec string) Option {
	return func(c *machineConfig) {
		if spec == "" {
			c.kernel.Faults = nil
			return
		}
		sched, err := kernel.ParseSchedule(spec)
		if err != nil {
			c.specErr = err
			return
		}
		c.kernel.Faults = &sched
	}
}

// Machine is a simulated computer: physical memory shared by any number of
// processes. Not safe for concurrent use.
type Machine struct {
	cfg machineConfig
	sys *kernel.System
	// procs are the processes NewProcess made, for Release.
	procs []*Process
}

// NewMachine boots a machine.
func NewMachine(opts ...Option) *Machine {
	cfg := machineConfig{kernel: kernel.DefaultConfig()}
	for _, o := range opts {
		o(&cfg)
	}
	return &Machine{cfg: cfg, sys: kernel.NewSystem(cfg.kernel)}
}

// PhysFramesInUse returns the machine's live physical frame count.
func (m *Machine) PhysFramesInUse() uint64 { return m.sys.PhysMemory().InUse() }

// Ptr is a protected pointer handed out by Process.Malloc: the shadow-page
// address of the object.
type Ptr = vm.Addr

// Process is one protected process in direct (interposition) mode: a
// malloc/free interface whose every allocation is shadow-page protected.
type Process struct {
	proc  *kernel.Process
	heap  *heap.Heap
	remap *core.Remapper
}

// NewProcess creates a protected process on the machine: direct mode, which
// is ModeDetectNoPA without a compiler.
func (m *Machine) NewProcess() (*Process, error) {
	proc, cfg, err := m.process(ModeDetectNoPA)
	if err != nil {
		return nil, err
	}
	p := &Process{
		proc:  proc,
		heap:  heap.New(proc),
		remap: core.New(proc, cfg),
	}
	m.procs = append(m.procs, p)
	return p, nil
}

// process makes the machine's next process for a run under mode and returns
// it with the detector configuration its remapper runs with. NewProcess and
// Program.Run both build through it, so every option reaches every process:
// a malformed option spec, or a detector option under a mode that runs no
// detector, is an error before any simulated work, and span tracing is
// installed on the process.
func (m *Machine) process(mode Mode) (*kernel.Process, core.Config, error) {
	cfg := m.cfg.detector
	if m.cfg.specErr != nil {
		return nil, cfg, m.cfg.specErr
	}
	if !mode.detects() {
		opt := ""
		switch {
		case cfg.Policy != core.ReusePolicy{}:
			opt = "WithReusePolicy/WithPolicySpec"
		case cfg.Guards:
			opt = "WithOverflowGuards"
		case cfg.Sampling != nil:
			opt = "WithSampling"
		}
		if opt != "" {
			return nil, cfg, fmt.Errorf("pageguard: mode %s runs no detector, so it cannot serve %s", mode, opt)
		}
	}
	proc, err := kernel.NewProcess(m.sys, m.cfg.kernel)
	if err != nil {
		return nil, cfg, err
	}
	if m.cfg.spans {
		proc.SetTracer(obs.NewTracer(proc.Meter().Cycles))
	}
	return proc, cfg, nil
}

// Release hands the machine's own simulated memory back to pools shared by
// every machine in the program: the physical frames it wrote, the range-map
// nodes of its mappings and object indexes, its TLB entries and cache lines,
// and its processes' flight recorders. The next machine built takes its memory from those pools
// instead of allocating it. The machine and its processes must not be used
// afterwards, but results already taken from them (reports, stats, metric
// snapshots) stay valid. Call it once, on the goroutine that last used the
// machine; a machine never released is simply left to the garbage
// collector.
func (m *Machine) Release() {
	for _, p := range m.procs {
		p.remap.Release()
		p.proc.Release()
	}
	m.sys.PhysMemory().Release()
	m.procs = nil
}

// Malloc allocates size bytes under shadow-page protection. site labels the
// allocation in diagnostics (pass "" for none).
func (p *Process) Malloc(size uint64, site string) (Ptr, error) {
	if site == "" {
		site = "malloc"
	}
	return p.remap.Alloc(core.HeapAllocator{H: p.heap}, nil, size, site)
}

// Free releases an allocation; the object's pages become trapping. A double
// free returns a *DanglingError.
func (p *Process) Free(ptr Ptr, site string) error {
	if site == "" {
		site = "free"
	}
	return p.remap.Free(core.HeapAllocator{H: p.heap}, ptr, site)
}

// explain routes MMU faults through the detector.
func (p *Process) explain(err error, site string) error {
	if fault, ok := err.(*vm.Fault); ok {
		return p.remap.Explain(fault, site)
	}
	return err
}

// Write stores buf at ptr+off; a write through a stale pointer returns a
// *DanglingError.
func (p *Process) Write(ptr Ptr, off uint64, buf []byte) error {
	if err := p.proc.MMU().WriteBytes(ptr+off, buf); err != nil {
		return p.explain(err, "write")
	}
	return nil
}

// Read loads len(buf) bytes from ptr+off; a read through a stale pointer
// returns a *DanglingError.
func (p *Process) Read(ptr Ptr, off uint64, buf []byte) error {
	if err := p.proc.MMU().ReadBytes(ptr+off, buf); err != nil {
		return p.explain(err, "read")
	}
	return nil
}

// WriteWord stores a little-endian word of the given size (1, 2, 4, or 8).
func (p *Process) WriteWord(ptr Ptr, off uint64, size int, v uint64) error {
	return p.WriteWordAt(ptr, off, size, v, "write")
}

// WriteWordAt is WriteWord with a diagnostic site label for the access, so
// a trapped dangling write reports the caller's source position instead of
// a generic "write".
func (p *Process) WriteWordAt(ptr Ptr, off uint64, size int, v uint64, site string) error {
	if err := p.proc.MMU().WriteWord(ptr+off, size, v); err != nil {
		return p.explain(err, site)
	}
	return nil
}

// ReadWord loads a little-endian word of the given size (1, 2, 4, or 8).
func (p *Process) ReadWord(ptr Ptr, off uint64, size int) (uint64, error) {
	return p.ReadWordAt(ptr, off, size, "read")
}

// ReadWordAt is ReadWord with a diagnostic site label for the access.
func (p *Process) ReadWordAt(ptr Ptr, off uint64, size int, site string) (uint64, error) {
	v, err := p.proc.MMU().ReadWord(ptr+off, size)
	if err != nil {
		return 0, p.explain(err, site)
	}
	return v, nil
}

// Stats summarizes the detector's activity in this process.
type Stats struct {
	// Allocs and Frees count protected operations.
	Allocs, Frees uint64
	// DanglingDetected counts trapped dangling uses.
	DanglingDetected uint64
	// Cycles is the simulated cycle count (the cost model's "time").
	Cycles uint64
	// Syscalls counts mremap/mprotect/mmap calls.
	Syscalls uint64
	// VirtualPages is the total virtual address space consumed, in pages.
	VirtualPages uint64
	// InjectedFaults counts syscall failures the fault schedule injected
	// (zero without WithFaultSchedule).
	InjectedFaults uint64
	// TransientRetries counts syscall re-attempts after transient faults.
	TransientRetries uint64
	// DegradedAllocs counts allocations degraded to unprotected canonical
	// addresses after persistent fault injection.
	DegradedAllocs uint64
	// DegradedFrees counts frees of degraded allocations.
	DegradedFrees uint64
	// UnprotectedFrees counts frees whose protection syscall failed
	// persistently.
	UnprotectedFrees uint64
	// DoubleFrees counts detected frees of already-freed objects (a
	// subset of DanglingDetected).
	DoubleFrees uint64
	// RecycledPages counts shadow pages recycled under a reuse policy.
	RecycledPages uint64
	// GCRuns counts conservative-GC cycles (scheduled and manual).
	GCRuns uint64
	// GCCycleCost is the cycles charged for conservative-GC scans.
	GCCycleCost uint64
	// MissedDetections counts ground-truth stale uses the detector missed
	// because shadow pages were recycled first.
	MissedDetections uint64
}

// Stats returns the process's counters.
func (p *Process) Stats() Stats {
	rs := p.remap.Stats()
	return Stats{
		Allocs:           rs.Allocs,
		Frees:            rs.Frees,
		DanglingDetected: rs.DanglingDetected,
		Cycles:           p.proc.Meter().Cycles(),
		Syscalls:         p.proc.Meter().Syscalls(),
		VirtualPages:     p.proc.Space().ReservedPages(),
		InjectedFaults:   uint64(len(p.proc.InjectedFaults())),
		TransientRetries: rs.TransientRetries,
		DegradedAllocs:   rs.DegradedAllocs,
		DegradedFrees:    rs.DegradedFrees,
		UnprotectedFrees: rs.UnprotectedFrees,
		DoubleFrees:      rs.DoubleFrees,
		RecycledPages:    rs.RecycledPages,
		GCRuns:           rs.GCRuns,
		GCCycleCost:      rs.GCCycleCost,
		MissedDetections: rs.MissedDetections,
	}
}

// InjectedFaults returns the process's injected-fault log, in order (empty
// without WithFaultSchedule). Replay tooling serializes these alongside the
// schedule so a faulted run reproduces bit-for-bit.
func (p *Process) InjectedFaults() []FaultEvent { return p.proc.InjectedFaults() }

// HealthCheck audits the detector's internal invariants, returning the
// first violation (nil when healthy). Intended after fault-injection runs.
func (p *Process) HealthCheck() error { return p.remap.HealthCheck() }

// EnableBatchedFrees defers the mprotect of freed objects and issues one
// batched protection call per batchSize frees (the paper's §6 OS-enhancement
// study). Detection of uses of the last < batchSize freed objects is
// delayed until the next flush; call FlushProtection to close the window.
func (p *Process) EnableBatchedFrees(batchSize int) {
	p.remap.EnableBatchedProtect(batchSize)
}

// FlushProtection protects all pending freed objects now.
func (p *Process) FlushProtection() error { return p.remap.Flush() }

// CollectGarbage runs the §3.4 conservative collector, recycling shadow
// pages of freed objects that no live memory references. Returns the number
// of pages recycled.
func (p *Process) CollectGarbage() uint64 { return p.remap.CollectGarbage() }

// GCCycleLog returns every collector cycle's accounting record, in
// execution order.
func (p *Process) GCCycleLog() []GCCycle { return p.remap.GCCycleLog() }

// SchedulerHealthErr returns the first invariant violation a post-cycle
// audit found, or nil.
func (p *Process) SchedulerHealthErr() error { return p.remap.SchedulerHealthErr() }

// ObjectAt returns the detector's record covering the shadow page of ptr,
// or nil. Ground-truth harnesses capture the record at allocation time so a
// later stale use can be classified exactly (NoteStaleUse).
func (p *Process) ObjectAt(ptr Ptr) *ObjectRecord { return p.remap.ObjectAt(ptr) }

// NoteStaleUse reports one ground-truth stale use to the missed-detection
// ledger: obj is the record captured at allocation time (nil if
// unavailable) and detected says whether the detector caught the use.
func (p *Process) NoteStaleUse(obj *ObjectRecord, detected bool) {
	p.remap.NoteStaleUse(obj, detected)
}

// Ledger returns the process's missed-detection ledger.
func (p *Process) Ledger() MissLedger { return p.remap.Ledger() }

// AllocGlobal carves size bytes (8-byte aligned) out of the process's
// globals segment and returns its address. The segment is a conservative-GC
// root, so harnesses use it to hold pointers the simulated collector must
// see (a Go-side map is invisible to it).
func (p *Process) AllocGlobal(size uint64) (Ptr, error) {
	return p.proc.AllocGlobal(size)
}

// Exit tears the process down, returning its physical memory to the machine.
func (p *Process) Exit() error { return p.proc.Exit() }

// ExhaustionTime computes §3.4's bound: how long a program consuming fresh
// virtual pages at the given rate runs before exhausting a 47-bit address
// space. The paper's scenario (one 4 KB page per microsecond) yields ≈9.5 h.
var ExhaustionTime = core.ExhaustionTime

// PaperExhaustionScenario returns the paper's own example bound.
var PaperExhaustionScenario = core.PaperExhaustionScenario

// String renders stats compactly. Fault-related counters appear whenever any
// of them is nonzero — not only when faults were injected, so degradation
// reached some other way (e.g. a replayed schedule whose log was truncated)
// is never silently dropped — and fault-free output is unchanged from the
// base scheme.
func (s Stats) String() string {
	out := fmt.Sprintf("allocs=%d frees=%d dangling=%d cycles=%d syscalls=%d vpages=%d",
		s.Allocs, s.Frees, s.DanglingDetected, s.Cycles, s.Syscalls, s.VirtualPages)
	if s.InjectedFaults > 0 || s.TransientRetries > 0 || s.DegradedAllocs > 0 ||
		s.DegradedFrees > 0 || s.UnprotectedFrees > 0 {
		out += fmt.Sprintf(" faults=%d retries=%d degraded=%d degraded-frees=%d unprotected=%d",
			s.InjectedFaults, s.TransientRetries, s.DegradedAllocs, s.DegradedFrees, s.UnprotectedFrees)
	}
	// Reuse/GC counters appear only when a reuse policy did work, so the
	// base scheme's output is unchanged.
	if s.RecycledPages > 0 || s.GCRuns > 0 || s.MissedDetections > 0 {
		out += fmt.Sprintf(" recycled=%d gc-runs=%d gc-cycles=%d missed=%d",
			s.RecycledPages, s.GCRuns, s.GCCycleCost, s.MissedDetections)
	}
	return out
}
