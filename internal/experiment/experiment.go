// Package experiment is the measurement harness: it runs each workload
// under each of the paper's build configurations and renders Tables 1-3,
// the §4.3 address-space study, and the §3.4 exhaustion calculation.
//
// Executions are fully deterministic (fixed seeds, cycle-model "time"), so
// a single run per cell replaces the paper's median-of-five.
package experiment

import (
	"errors"
	"fmt"

	"repro/internal/baseline/capability"
	"repro/internal/baseline/efence"
	"repro/internal/baseline/valgrind"
	"repro/internal/core"
	"repro/internal/minic/driver"
	"repro/internal/minic/interp"
	"repro/internal/minic/ir"
	"repro/internal/minic/safety"
	"repro/internal/obs"
	"repro/internal/runtimes"
	"repro/internal/sim/cost"
	"repro/internal/sim/kernel"
	"repro/internal/workload"
)

// ClockHz converts cycles to the "seconds" the tables print. The absolute
// value is presentational; every reported quantity is a ratio.
const ClockHz = 3.0e9

// Config is one build/runtime configuration from the paper.
type Config int

// Configurations.
const (
	// Native is GCC -O3 with the system allocator (Table 1 "native").
	Native Config = iota + 1
	// LLVMBase is the LLVM C back-end baseline (Table 1 "LLVM (base)"),
	// the denominator of Ratio 1.
	LLVMBase
	// PA is LLVM + Automatic Pool Allocation, no detection.
	PA
	// PADummy is PA plus a dummy syscall per allocation and
	// deallocation (isolates syscall cost from TLB cost).
	PADummy
	// Ours is PA + shadow pages: the paper's approach.
	Ours
	// OursNoPA is shadow pages over plain malloc (binary interposition
	// mode, §1.1): full detection, no virtual-address reuse.
	OursNoPA
	// Valgrind is the DBI baseline of Table 2.
	Valgrind
	// EFence is the Electric Fence baseline of §5.3.
	EFence
	// Capability is the SafeC/FisherPatil/Xu baseline of §5.2.
	Capability
	// OursStatic is Ours plus the static safety analysis
	// (internal/minic/safety): allocations proven never freed before use
	// skip shadow-page aliasing and free-time mprotect entirely.
	OursStatic
	// OursSampled is the sampled always-on tier (GWP-ASan mode): Ours with
	// only a seeded 1-in-SampledRate subset of allocation sites guarded, the
	// configuration a production fleet runs continuously.
	OursSampled
)

// SampledRate is the canonical production sampling rate the tables' "sampled"
// column measures (1-in-64 allocation sites guarded).
const SampledRate = 64

// SampledTierSpec is the sampling policy behind OursSampled. The fixed seed
// keeps the guarded site subset — and therefore every simulated number —
// deterministic across runs.
func SampledTierSpec() core.SamplingSpec {
	return core.SamplingSpec{Rate: SampledRate, Seed: 1}
}

var configNames = map[Config]string{
	Native: "native", LLVMBase: "llvm-base", PA: "pa", PADummy: "pa+dummy",
	Ours: "ours", OursNoPA: "ours-nopa", Valgrind: "valgrind",
	EFence: "efence", Capability: "capability", OursStatic: "ours+static",
	OursSampled: "ours-sampled",
}

// String implements fmt.Stringer.
func (c Config) String() string {
	if s, ok := configNames[c]; ok {
		return s
	}
	return fmt.Sprintf("config(%d)", int(c))
}

// AllConfigs returns every configuration.
func AllConfigs() []Config {
	return []Config{Native, LLVMBase, PA, PADummy, Ours, OursNoPA, Valgrind, EFence, Capability, OursStatic, OursSampled}
}

// usesPools reports whether the configuration runs APA-transformed code.
func (c Config) usesPools() bool {
	switch c {
	case PA, PADummy, Ours, OursStatic, OursSampled:
		return true
	}
	return false
}

// model returns the configuration's cycle model.
func (c Config) model() cost.Model {
	switch c {
	case Native:
		return cost.Native()
	case Valgrind:
		return cost.Valgrind()
	case Capability:
		return cost.Capability()
	default:
		return cost.LLVMBase()
	}
}

// runtimeFor builds the configuration's runtime on proc.
func (c Config) runtimeFor(proc *kernel.Process) interp.Runtime {
	switch c {
	case Native, LLVMBase, PA:
		return runtimes.NewNative(proc)
	case PADummy:
		return runtimes.NewPADummy(proc)
	case Ours, OursNoPA, OursStatic:
		return runtimes.NewShadow(proc, core.Config{})
	case OursSampled:
		spec := SampledTierSpec()
		return runtimes.NewShadow(proc, core.Config{Sampling: &spec})
	case Valgrind:
		return valgrind.New(proc)
	case EFence:
		return efence.New(proc)
	case Capability:
		return capability.New(proc)
	}
	return nil
}

// Measurement is the result of one (workload, configuration) cell.
type Measurement struct {
	Workload string
	Config   Config
	// Cycles is total simulated cycles across all connections/runs.
	Cycles uint64
	// Counters aggregates the meter across processes.
	Counters cost.Snapshot
	// ReservedPages is total virtual pages consumed (per connection for
	// servers: see PerConnPages).
	ReservedPages uint64
	// PerConnPages lists per-connection virtual page consumption for
	// servers (the §4.3 study).
	PerConnPages []uint64
	// PeakFrames is the machine-wide peak physical frame usage.
	PeakFrames uint64
	// CapabilityMetadataBytes is the capability baseline's metadata
	// footprint (zero for other configurations).
	CapabilityMetadataBytes uint64
	// ElidedAllocs counts allocations that skipped shadow-page aliasing
	// because the static analysis proved them safe (OursStatic only).
	ElidedAllocs uint64
	// ElisionMisses counts frees of statically elided objects — always
	// zero when the static analysis is sound.
	ElisionMisses uint64
	// DanglingDetected counts dangling-pointer uses the shadow-page
	// runtime caught (Ours/OursNoPA/OursStatic).
	DanglingDetected uint64
	// DegradedAllocs counts allocations that fell back to unprotected
	// canonical addresses after persistent syscall failure (fault
	// injection runs).
	DegradedAllocs uint64
	// DegradedFrees counts frees of degraded allocations.
	DegradedFrees uint64
	// UnprotectedFrees counts frees whose PROT_NONE protection failed
	// persistently.
	UnprotectedFrees uint64
	// TransientRetries counts syscall re-attempts after transient faults.
	TransientRetries uint64
	// InjectedFaults counts syscall failures the fault schedule injected
	// across all connections.
	InjectedFaults uint64
	// ContainedConns counts connections terminated by a detected dangling
	// use while the remaining connections kept running.
	ContainedConns uint64
	// Diagnostics preserves the dangling-use reports, one per contained
	// connection.
	Diagnostics []string
	// TrapReports preserves the full forensic reports of detected dangling
	// uses, in connection order.
	TrapReports []*obs.TrapReport
	// Allocs and Frees count the shadow runtime's protected operations
	// across all connections (zero for non-shadow configurations).
	Allocs, Frees uint64
	// SampledAllocs and UnsampledAllocs split allocations between the
	// guarded and unguarded paths under the sampled tier (OursSampled);
	// both are zero when sampling is off.
	SampledAllocs, UnsampledAllocs uint64
	// Profile is the per-allocation-site cycle attribution merged across
	// connections (nil for configurations that never charge through the
	// kernel's attributed path — it still exists, holding only the
	// untracked bucket, for any configuration that makes syscalls).
	Profile *obs.SiteProfile
	// Metrics is the additive merge of every connection's metric snapshot
	// (kernel + remapper + pool series).
	Metrics obs.Snapshot
	// ChargedCycles sums each connection's kernel-charged cycles (syscalls
	// + runtime-delivered traps) — the reference total the Profile must sum
	// to exactly.
	ChargedCycles uint64
	// Output is the program output (first connection for servers).
	Output string
	// Err is a terminating program error (nil for clean workloads).
	Err error
}

// Seconds converts the measurement to table seconds.
func (m Measurement) Seconds() float64 { return float64(m.Cycles) / ClockHz }

// Options tunes a run.
type Options struct {
	// Kernel overrides the machine configuration (zero value = default).
	Kernel *kernel.Config
	// StepLimit bounds interpreter steps per process.
	StepLimit uint64
	// Faults is a kernel fault-injection schedule (kernel.ParseSchedule
	// format); empty disables injection.
	Faults string
	// Audit runs the remapper health check after every connection,
	// failing the run on any bookkeeping invariant violation (chaos and
	// containment studies).
	Audit bool
	// Parallelism is the number of worker goroutines RunCells fans
	// (workload, configuration) cells out across: 0 = one per available
	// CPU, 1 = sequential. The worker count never changes any simulated
	// number — results are assembled in cell order.
	Parallelism int
}

// Run measures one workload under one configuration.
func Run(w workload.Workload, c Config, opts Options) (Measurement, error) {
	m := Measurement{Workload: w.Name, Config: c}

	var prog *ir.Program
	var staticRep *safety.Report
	var err error
	switch {
	case c == OursStatic:
		prog, _, staticRep, err = driver.CompileStatic(w.Source)
	case c.usesPools():
		prog, _, err = driver.CompileWithPools(w.Source)
	default:
		prog, err = driver.Compile(w.Source)
	}
	if err != nil {
		return m, fmt.Errorf("experiment: %s/%s: %w", w.Name, c, err)
	}

	cfg := kernel.DefaultConfig()
	if opts.Kernel != nil {
		cfg = *opts.Kernel
	}
	cfg.Model = c.model()
	cfg.SiteProfile = true
	if opts.Faults != "" {
		sched, err := kernel.ParseSchedule(opts.Faults)
		if err != nil {
			return m, fmt.Errorf("experiment: %s/%s: %w", w.Name, c, err)
		}
		cfg.Faults = &sched
	}
	sys := kernel.NewSystem(cfg)

	conns := w.Connections
	if conns == 0 {
		conns = 1
	}
	for i := 0; i < conns; i++ {
		var capRT *capability.Runtime
		var shadowRT *runtimes.Shadow
		mkRT := func(p *kernel.Process) interp.Runtime {
			rt := c.runtimeFor(p)
			if cr, ok := rt.(*capability.Runtime); ok {
				capRT = cr
			}
			if sr, ok := rt.(*runtimes.Shadow); ok {
				shadowRT = sr
			}
			return rt
		}
		res, err := driver.Run(prog, sys, cfg, mkRT, interp.Config{StepLimit: opts.StepLimit})
		if err != nil {
			return m, fmt.Errorf("experiment: %s/%s: %w", w.Name, c, err)
		}
		snap := res.Proc.Meter().Snapshot()
		m.Cycles += snap.Cycles
		m.Counters.Cycles += snap.Cycles
		m.Counters.Instrs += snap.Instrs
		m.Counters.MemAccesses += snap.MemAccesses
		m.Counters.Syscalls += snap.Syscalls
		m.Counters.Traps += snap.Traps
		if capRT != nil {
			m.CapabilityMetadataBytes += capRT.MetadataBytes()
		}
		if shadowRT != nil {
			st := shadowRT.Remapper().Stats()
			m.ElidedAllocs += st.ElidedAllocs
			m.ElisionMisses += st.ElisionMisses
			m.DanglingDetected += st.DanglingDetected
			m.DegradedAllocs += st.DegradedAllocs
			m.DegradedFrees += st.DegradedFrees
			m.UnprotectedFrees += st.UnprotectedFrees
			m.TransientRetries += st.TransientRetries
			m.Allocs += st.Allocs + st.ElidedAllocs
			m.Frees += st.Frees + st.DegradedFrees
			m.SampledAllocs += st.SampledAllocs
			m.UnsampledAllocs += st.UnsampledAllocs
			if opts.Audit {
				if err := shadowRT.Remapper().HealthCheck(); err != nil {
					return m, fmt.Errorf("experiment: %s/%s conn %d: %w", w.Name, c, i, err)
				}
			}
		}
		// Observability: merge this connection's site profile and metric
		// snapshot into the per-workload aggregates. Registration is
		// read-only (function-backed series), so it cannot perturb the
		// deterministic cycle accounting.
		if m.Profile == nil {
			m.Profile = obs.NewSiteProfile()
		}
		m.Profile.Merge(res.Proc.Profile())
		m.ChargedCycles += res.Proc.KernelChargedCycles()
		reg := obs.NewRegistry()
		res.Proc.RegisterMetrics(reg)
		if shadowRT != nil {
			shadowRT.Remapper().RegisterMetrics(reg)
			shadowRT.Pools().RegisterMetrics(reg)
		}
		m.Metrics.Add(reg.Snapshot())
		m.InjectedFaults += uint64(len(res.Proc.InjectedFaults()))
		pages := res.Proc.Space().ReservedPages()
		m.ReservedPages += pages
		m.PerConnPages = append(m.PerConnPages, pages)
		if i == 0 {
			m.Output = res.Machine.Output()
		}
		if res.Err != nil {
			var de *core.DanglingError
			if errors.As(res.Err, &de) {
				// Fork-per-connection containment: this connection dies
				// with its diagnostic; the loop — like the parent server —
				// keeps accepting the rest.
				m.ContainedConns++
				m.Diagnostics = append(m.Diagnostics, de.Error())
				if de.Report != nil {
					m.TrapReports = append(m.TrapReports, de.Report)
				}
			}
			if m.Err == nil {
				m.Err = res.Err
			}
		}
		// Fork-per-connection: the process exits, releasing frames.
		if err := res.Proc.Exit(); err != nil {
			return m, fmt.Errorf("experiment: %s/%s: exit: %w", w.Name, c, err)
		}
	}
	m.PeakFrames = sys.PhysMemory().PeakInUse()
	// Static-analysis gauges are per-workload compile-time facts: register
	// them once, after the connection loop, so the additive per-connection
	// snapshot merge cannot inflate them.
	if staticRep != nil {
		reg := obs.NewRegistry()
		staticRep.RegisterMetrics(reg)
		m.Metrics.Add(reg.Snapshot())
	}
	return m, nil
}

// StaticMetricsSnapshot compiles w and returns a snapshot holding only the
// static safety analysis's gauges (pg_static_sites_total by verdict and
// pg_static_elided_total) — compile-time facts attachable to any
// configuration's runtime metrics.
func StaticMetricsSnapshot(w workload.Workload) (obs.Snapshot, error) {
	_, _, rep, err := driver.CompileStatic(w.Source)
	if err != nil {
		return obs.Snapshot{}, err
	}
	reg := obs.NewRegistry()
	rep.RegisterMetrics(reg)
	return reg.Snapshot(), nil
}

// Ratio returns a/b as a float ratio of cycles.
func Ratio(a, b Measurement) float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(a.Cycles) / float64(b.Cycles)
}
