// Package driver composes the mini-C pipeline: parse → check → IR, with or
// without the Automatic Pool Allocation transformation, and runs programs on
// a simulated process.
package driver

import (
	"fmt"

	"repro/internal/minic/check"
	"repro/internal/minic/interp"
	"repro/internal/minic/ir"
	"repro/internal/minic/irgen"
	"repro/internal/minic/parser"
	"repro/internal/minic/poolalloc"
	"repro/internal/minic/safety"
	"repro/internal/sim/kernel"
)

// Compile runs parse, check, and IR generation (no pool allocation): the
// paper's "native"/"LLVM base" compilation.
func Compile(src string) (*ir.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := check.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	out, err := irgen.Generate(info)
	if err != nil {
		return nil, fmt.Errorf("irgen: %w", err)
	}
	return out, nil
}

// CompileWithPools additionally applies the Automatic Pool Allocation
// transformation: the compilation used by the PA, PA+dummy, and shadow
// configurations.
func CompileWithPools(src string) (*ir.Program, *poolalloc.Result, error) {
	prog, err := Compile(src)
	if err != nil {
		return nil, nil, err
	}
	res, err := poolalloc.Transform(prog)
	if err != nil {
		return nil, nil, fmt.Errorf("poolalloc: %w", err)
	}
	return prog, res, nil
}

// CompileStatic is CompileWithPools plus the static safety analysis: the
// "ours+static" compilation. The safety pass runs on the pre-APA IR, marks
// proven-elidable malloc sites, and the pool transformation carries the flag
// onto the rewritten PoolAlloc instructions.
func CompileStatic(src string) (*ir.Program, *poolalloc.Result, *safety.Report, error) {
	prog, err := Compile(src)
	if err != nil {
		return nil, nil, nil, err
	}
	rep, err := safety.Analyze(prog)
	if err != nil {
		return nil, nil, nil, err
	}
	rep.MarkElidable()
	res, err := poolalloc.Transform(prog)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("poolalloc: %w", err)
	}
	return prog, res, rep, nil
}

// RunResult carries a finished execution's artifacts.
type RunResult struct {
	Machine *interp.Machine
	Proc    *kernel.Process
	// Err is the program's terminating error (nil for clean exit; a
	// *core.DanglingError for a detected dangling pointer use).
	Err error
}

// Run executes a compiled program on a fresh process of sys with the given
// runtime factory.
func Run(prog *ir.Program, sys *kernel.System, cfg kernel.Config,
	makeRT func(*kernel.Process) interp.Runtime, icfg interp.Config) (*RunResult, error) {
	proc, err := kernel.NewProcess(sys, cfg)
	if err != nil {
		return nil, err
	}
	return RunOn(prog, proc, makeRT(proc), icfg)
}

// RunOn executes a compiled program on an existing process with an existing
// runtime: the in-process (threaded) server mode, where many connections
// share one address space and one shadow-page engine. Each call builds a
// fresh machine (fresh globals, stack, and output buffer) but reuses the
// process, so state one connection leaves behind — including a detected
// dangling use — is visible to, yet must not terminate, the next.
func RunOn(prog *ir.Program, proc *kernel.Process, rt interp.Runtime,
	icfg interp.Config) (*RunResult, error) {
	m, err := interp.New(prog, proc, rt, icfg)
	if err != nil {
		return nil, err
	}
	return &RunResult{Machine: m, Proc: proc, Err: m.Run()}, nil
}
