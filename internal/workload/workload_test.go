package workload_test

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/minic/driver"
	"repro/internal/minic/interp"
	"repro/internal/runtimes"
	"repro/internal/sim/kernel"
	"repro/internal/workload"
)

// TestAllWorkloadsCompile ensures every workload parses, checks, lowers,
// and pool-allocates.
func TestAllWorkloadsCompile(t *testing.T) {
	for _, w := range workload.All() {
		t.Run(w.Name, func(t *testing.T) {
			if _, err := driver.Compile(w.Source); err != nil {
				t.Fatalf("compile: %v", err)
			}
			if _, _, err := driver.CompileWithPools(w.Source); err != nil {
				t.Fatalf("compile with pools: %v", err)
			}
		})
	}
}

// runOnce executes one workload program under a configuration.
func runOnce(t *testing.T, src string, withPools bool,
	makeRT func(*kernel.Process) interp.Runtime) *driver.RunResult {
	t.Helper()
	p, err := driver.Compile(src)
	if withPools {
		p, _, err = driver.CompileWithPools(src)
	}
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := kernel.DefaultConfig()
	sys := kernel.NewSystem(cfg)
	res, err := driver.Run(p, sys, cfg, makeRT, interp.Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// TestWorkloadsRunCleanNatively: every workload except the running example
// (which contains the intentional bug) terminates cleanly and prints
// something under the native runtime.
func TestWorkloadsRunCleanNatively(t *testing.T) {
	for _, w := range workload.All() {
		if w.Category == workload.Example {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			res := runOnce(t, w.Source, false, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewNative(p)
			})
			if res.Err != nil {
				t.Fatalf("native run failed: %v\noutput:\n%s", res.Err, res.Machine.Output())
			}
			if res.Machine.Output() == "" {
				t.Fatal("workload produced no output")
			}
		})
	}
}

// TestWorkloadsOutputInvariantUnderDetection: the shadow configuration (with
// pools) must not change any clean workload's behaviour.
func TestWorkloadsOutputInvariantUnderDetection(t *testing.T) {
	for _, w := range workload.All() {
		if w.Category == workload.Example {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			native := runOnce(t, w.Source, false, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewNative(p)
			})
			if native.Err != nil {
				t.Fatalf("native: %v", native.Err)
			}
			shadow := runOnce(t, w.Source, true, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewShadow(p, core.Config{})
			})
			if shadow.Err != nil {
				t.Fatalf("shadow: %v", shadow.Err)
			}
			if native.Machine.Output() != shadow.Machine.Output() {
				t.Fatalf("output differs:\nnative: %q\nshadow: %q",
					native.Machine.Output(), shadow.Machine.Output())
			}
		})
	}
}

// TestRunningExampleIsBuggy: the example must trip the detector and only
// the detector.
func TestRunningExampleIsBuggy(t *testing.T) {
	w, err := workload.ByName("running-example")
	if err != nil {
		t.Fatal(err)
	}
	native := runOnce(t, w.Source, false, func(p *kernel.Process) interp.Runtime {
		return runtimes.NewNative(p)
	})
	if native.Err != nil {
		t.Fatalf("native should run to completion (silent corruption): %v", native.Err)
	}
	shadow := runOnce(t, w.Source, true, func(p *kernel.Process) interp.Runtime {
		return runtimes.NewShadow(p, core.Config{})
	})
	var de *core.DanglingError
	if !errors.As(shadow.Err, &de) {
		t.Fatalf("expected DanglingError, got %v", shadow.Err)
	}
}

func TestRegistryLookups(t *testing.T) {
	if _, err := workload.ByName("nope"); err == nil {
		t.Fatal("ByName should fail for unknown workloads")
	}
	if got := len(workload.ByCategory(workload.Utility)); got != 4 {
		t.Fatalf("utilities = %d, want 4", got)
	}
	if got := len(workload.ByCategory(workload.Server)); got != 5 {
		t.Fatalf("servers = %d, want 5", got)
	}
	if got := len(workload.ByCategory(workload.Olden)); got != 9 {
		t.Fatalf("olden = %d, want 9", got)
	}
	for _, w := range workload.ByCategory(workload.Server) {
		if w.Connections == 0 {
			t.Fatalf("server %s has no connection count", w.Name)
		}
	}
	if len(workload.Names()) != len(workload.All()) {
		t.Fatal("Names() length mismatch")
	}
}
