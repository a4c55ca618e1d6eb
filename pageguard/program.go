package pageguard

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/minic/driver"
	"repro/internal/minic/interp"
	"repro/internal/minic/ir"
	"repro/internal/minic/safety"
	"repro/internal/runtimes"
)

// Mode selects a run configuration for compiled programs.
type Mode int

// Modes.
const (
	// ModeNative runs with the plain allocator: no detection, the
	// baseline the paper compares against.
	ModeNative Mode = iota + 1
	// ModePA runs with Automatic Pool Allocation only: segregated pools,
	// no detection.
	ModePA
	// ModeDetect is the paper's approach: pool allocation plus
	// shadow-page detection of every dangling pointer use.
	ModeDetect
	// ModeDetectNoPA is detection without pool allocation (binary
	// interposition): full detection, no virtual-address reuse.
	ModeDetectNoPA
	// ModeDetectStatic is detection guided by the static safety analysis:
	// allocation sites the analysis proves never freed skip shadow-page
	// setup (the "ours+static" configuration).
	ModeDetectStatic
)

// detects reports whether the mode runs the shadow-page detector.
func (m Mode) detects() bool {
	return m == ModeDetect || m == ModeDetectNoPA || m == ModeDetectStatic
}

// ParseMode is the inverse of Mode.String.
func ParseMode(s string) (Mode, error) {
	for m := ModeNative; m <= ModeDetectStatic; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (native, pa, detect, detect-nopa, static)", s)
}

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModePA:
		return "pa"
	case ModeDetect:
		return "detect"
	case ModeDetectNoPA:
		return "detect-nopa"
	case ModeDetectStatic:
		return "static"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Program is a compiled mini-C program.
type Program struct {
	plain  *ir.Program
	pooled *ir.Program
	// static is the pooled program with elision flags from the static
	// safety analysis (ModeDetectStatic); staticRep is that analysis's
	// report.
	static    *ir.Program
	staticRep *safety.Report
	// Pools is the number of static pools the APA transformation
	// created (local + global).
	Pools int
}

// Compile parses, type-checks, and lowers a mini-C program, and applies the
// Automatic Pool Allocation transformation for the pool-based modes (with
// the static safety analysis's elision marking for ModeDetectStatic).
func Compile(src string) (*Program, error) {
	plain, err := driver.Compile(src)
	if err != nil {
		return nil, err
	}
	pooled, res, err := driver.CompileWithPools(src)
	if err != nil {
		return nil, err
	}
	static, _, rep, err := driver.CompileStatic(src)
	if err != nil {
		return nil, err
	}
	return &Program{plain: plain, pooled: pooled, static: static, staticRep: rep, Pools: res.PoolCount}, nil
}

// StaticReport exposes the static safety analysis report (verdicts, elision
// proofs) computed at Compile time.
func (pr *Program) StaticReport() *safety.Report { return pr.staticRep }

// Result is one program execution's outcome.
type Result struct {
	// Output is everything the program printed.
	Output string
	// Err is the terminating error: nil for a clean exit, a
	// *DanglingError for a detected dangling pointer use.
	Err error
	// Cycles is the simulated execution time.
	Cycles uint64
	// Syscalls counts system calls made.
	Syscalls uint64
	// VirtualPages is the virtual address space consumed, in pages.
	VirtualPages uint64
	// Report is the forensic trap report when Err is a *DanglingError
	// (nil otherwise).
	Report *TrapReport
	// Profile is the run's per-allocation-site cycle attribution (nil
	// without WithSiteProfile).
	Profile *SiteProfile
	// Spans are the run's cycle-exact spans (nil without WithSpanTracing).
	Spans []Span
}

// Run executes the program on the machine under the given mode, in the
// machine's next process. Every machine option reaches that process; a
// detector option under a mode with no detector is an error naming it.
func (pr *Program) Run(m *Machine, mode Mode) (*Result, error) {
	if mode < ModeNative || mode > ModeDetectStatic {
		return nil, fmt.Errorf("pageguard: unknown mode %v", mode)
	}
	proc, cfg, err := m.process(mode)
	if err != nil {
		return nil, err
	}
	prog := pr.plain
	switch mode {
	case ModePA, ModeDetect:
		prog = pr.pooled
	case ModeDetectStatic:
		prog = pr.static
	}
	var rt interp.Runtime
	if mode.detects() {
		rt = runtimes.NewShadow(proc, cfg)
	} else {
		rt = runtimes.NewNative(proc)
	}
	res, err := driver.RunOn(prog, proc, rt, interp.Config{})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Output:       res.Machine.Output(),
		Err:          res.Err,
		Cycles:       res.Proc.Meter().Cycles(),
		Syscalls:     res.Proc.Meter().Syscalls(),
		VirtualPages: res.Proc.Space().ReservedPages(),
		Profile:      res.Proc.Profile(),
		Spans:        res.Proc.Tracer().Spans(),
	}
	if de, ok := res.Err.(*core.DanglingError); ok {
		out.Report = de.Report
	}
	if err := res.Proc.Exit(); err != nil {
		return nil, err
	}
	return out, nil
}

// Dangling extracts the *DanglingError from a result, if any.
func (r *Result) Dangling() (*core.DanglingError, bool) {
	de, ok := r.Err.(*core.DanglingError)
	return de, ok
}
