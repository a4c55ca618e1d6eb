package driver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/minic/interp"
	"repro/internal/minic/ir"
	"repro/internal/runtimes"
	"repro/internal/sim/kernel"
)

func newNativeRT(p *kernel.Process) interp.Runtime { return runtimes.NewNative(p) }

func newShadowRT(p *kernel.Process) interp.Runtime {
	return runtimes.NewShadow(p, core.Config{})
}

func mustCompile(t *testing.T, src string, withPools bool) *ir.Program {
	t.Helper()
	if withPools {
		prog, _, err := CompileWithPools(src)
		if err != nil {
			t.Fatalf("compile with pools: %v", err)
		}
		return prog
	}
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}
