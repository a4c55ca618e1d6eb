// Package baseline_test exercises the three comparator runtimes through the
// full compiler pipeline, checking both their detection semantics and the
// cost contrasts the paper reports.
package baseline_test

import (
	"errors"
	"testing"

	"repro/internal/baseline/capability"
	"repro/internal/baseline/efence"
	"repro/internal/baseline/valgrind"
	"repro/internal/core"
	"repro/internal/minic/driver"
	"repro/internal/minic/interp"
	"repro/internal/runtimes"
	"repro/internal/sim/cost"
	"repro/internal/sim/kernel"
)

const uafProgram = `
void main() {
  int *p = (int*)malloc(64);
  p[0] = 1;
  free(p);
  print_int(p[0]);
}
`

const doubleFreeProgram = `
void main() {
  char *p = malloc(32);
  free(p);
  free(p);
}
`

const cleanChurn = `
void main() {
  int i;
  int sum = 0;
  for (i = 0; i < 200; i = i + 1) {
    int *p = (int*)malloc(40);
    p[0] = i;
    p[4] = i * 2;
    sum = sum + p[0] + p[4];
    free(p);
  }
  print_int(sum);
}
`

// delayedUAF frees a chunk, then churns enough memory to push it out of any
// bounded quarantine before using the stale pointer.
const delayedUAF = `
void main() {
  int *stale = (int*)malloc(64);
  stale[0] = 7;
  free(stale);
  int i;
  for (i = 0; i < 3000; i = i + 1) {
    char *filler = malloc(512);
    filler[0] = 'x';
    free(filler);
  }
  print_int(stale[0]);
}
`

func run(t *testing.T, src string, model cost.Model,
	makeRT func(*kernel.Process) interp.Runtime) *driver.RunResult {
	t.Helper()
	prog, err := driver.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := kernel.DefaultConfig()
	cfg.Model = model
	sys := kernel.NewSystem(cfg)
	res, err := driver.Run(prog, sys, cfg, makeRT, interp.Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestEFenceDetectsUAF(t *testing.T) {
	res := run(t, uafProgram, cost.Default(), func(p *kernel.Process) interp.Runtime {
		return efence.New(p)
	})
	var ve *efence.ViolationError
	if !errors.As(res.Err, &ve) {
		t.Fatalf("expected ViolationError, got %v", res.Err)
	}
	if ve.Double {
		t.Fatal("misclassified as double free")
	}
}

func TestEFenceDetectsDoubleFree(t *testing.T) {
	res := run(t, doubleFreeProgram, cost.Default(), func(p *kernel.Process) interp.Runtime {
		return efence.New(p)
	})
	var ve *efence.ViolationError
	if !errors.As(res.Err, &ve) {
		t.Fatalf("expected ViolationError, got %v", res.Err)
	}
	if !ve.Double {
		t.Fatal("double free not classified")
	}
}

func TestEFencePhysicalBlowup(t *testing.T) {
	// §5.3: one object per physical page. 200 x 40-byte objects cost the
	// shadow scheme a handful of frames but Electric Fence hundreds.
	ef := run(t, cleanChurn, cost.Default(), func(p *kernel.Process) interp.Runtime {
		return efence.New(p)
	})
	if ef.Err != nil {
		t.Fatalf("efence run failed: %v", ef.Err)
	}
	shadow := run(t, cleanChurn, cost.Default(), func(p *kernel.Process) interp.Runtime {
		return runtimes.NewShadow(p, core.Config{})
	})
	if shadow.Err != nil {
		t.Fatalf("shadow run failed: %v", shadow.Err)
	}
	// Compare heap frames only: stack+globals are a fixed per-process
	// cost identical across configurations.
	baseCfg := kernel.DefaultConfig()
	baseSys := kernel.NewSystem(baseCfg)
	if _, err := kernel.NewProcess(baseSys, baseCfg); err != nil {
		t.Fatalf("baseline process: %v", err)
	}
	fixed := baseSys.PhysMemory().PeakInUse()

	efFrames := ef.Proc.System().PhysMemory().PeakInUse() - fixed
	shFrames := shadow.Proc.System().PhysMemory().PeakInUse() - fixed
	if efFrames < shFrames*5 {
		t.Fatalf("efence heap peak %d frames vs shadow %d — blowup not reproduced",
			efFrames, shFrames)
	}
}

func TestEFenceOOMUnderFrameBudget(t *testing.T) {
	// The paper: "when used with electric fence, enscript runs out of
	// physical memory". A frame budget that the shadow scheme fits in
	// comfortably kills Electric Fence.
	prog, err := driver.Compile(`
void main() {
  int i;
  for (i = 0; i < 2000; i = i + 1) {
    char *p = malloc(24);
    p[0] = 'a';
  }
  print_int(1);
}
`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cfg := kernel.DefaultConfig()
	cfg.MaxFrames = 1500 // plenty for one heap, nowhere near 2000 pages
	sys := kernel.NewSystem(cfg)
	res, err := driver.Run(prog, sys, cfg, func(p *kernel.Process) interp.Runtime {
		return efence.New(p)
	}, interp.Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Err == nil {
		t.Fatal("efence should exhaust the frame budget")
	}

	sys2 := kernel.NewSystem(cfg)
	res2, err := driver.Run(prog, sys2, cfg, func(p *kernel.Process) interp.Runtime {
		return runtimes.NewShadow(p, core.Config{})
	}, interp.Config{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res2.Err != nil {
		t.Fatalf("shadow scheme should fit the same budget: %v", res2.Err)
	}
}

func TestValgrindDetectsFreshUAF(t *testing.T) {
	res := run(t, uafProgram, cost.Valgrind(), func(p *kernel.Process) interp.Runtime {
		return valgrind.New(p)
	})
	var ue *valgrind.UseError
	if !errors.As(res.Err, &ue) {
		t.Fatalf("expected UseError, got %v", res.Err)
	}
}

func TestValgrindDetectsDoubleFree(t *testing.T) {
	res := run(t, doubleFreeProgram, cost.Valgrind(), func(p *kernel.Process) interp.Runtime {
		return valgrind.New(p)
	})
	var ue *valgrind.UseError
	if !errors.As(res.Err, &ue) || !ue.Double {
		t.Fatalf("expected double-free UseError, got %v", res.Err)
	}
}

func TestValgrindMissesDelayedUAF(t *testing.T) {
	// The heuristic gap of §5.1: after the quarantine evicts the chunk
	// and the allocator reuses it, the stale access goes undetected.
	res := run(t, delayedUAF, cost.Valgrind(), func(p *kernel.Process) interp.Runtime {
		rt := valgrind.New(p)
		rt.SetQuarantine(1 << 12) // small quarantine to force eviction
		return rt
	})
	if res.Err != nil {
		t.Fatalf("valgrind should MISS the delayed UAF (heuristic), got %v", res.Err)
	}

	// The shadow scheme catches the same bug no matter the delay.
	shadow := run(t, delayedUAF, cost.Default(), func(p *kernel.Process) interp.Runtime {
		return runtimes.NewShadow(p, core.Config{})
	})
	if shadow.Err == nil {
		t.Fatal("shadow scheme must catch the delayed UAF")
	}
}

func TestValgrindOrdersOfMagnitudeSlower(t *testing.T) {
	// Table 2's shape: valgrind's interpretation overhead dwarfs the
	// shadow scheme's syscall overhead on the same workload.
	vg := run(t, cleanChurn, cost.Valgrind(), func(p *kernel.Process) interp.Runtime {
		return valgrind.New(p)
	})
	if vg.Err != nil {
		t.Fatalf("valgrind: %v", vg.Err)
	}
	base := run(t, cleanChurn, cost.LLVMBase(), func(p *kernel.Process) interp.Runtime {
		return runtimes.NewNative(p)
	})
	if base.Err != nil {
		t.Fatalf("base: %v", base.Err)
	}
	ratio := float64(vg.Proc.Meter().Cycles()) / float64(base.Proc.Meter().Cycles())
	if ratio < 2.0 {
		t.Fatalf("valgrind slowdown = %.2fx, want >= 2x", ratio)
	}
}

func TestCapabilityDetectsUAF(t *testing.T) {
	res := run(t, uafProgram, cost.Capability(), func(p *kernel.Process) interp.Runtime {
		return capability.New(p)
	})
	var te *capability.TemporalError
	if !errors.As(res.Err, &te) {
		t.Fatalf("expected TemporalError, got %v", res.Err)
	}
}

func TestCapabilityDetectsDelayedUAFDespiteReuse(t *testing.T) {
	// Unlike valgrind, capability systems keep the guarantee across
	// reuse (the revoked capability travels with the pointer).
	res := run(t, delayedUAF, cost.Capability(), func(p *kernel.Process) interp.Runtime {
		return capability.New(p)
	})
	var te *capability.TemporalError
	if !errors.As(res.Err, &te) {
		t.Fatalf("expected TemporalError, got %v", res.Err)
	}
}

func TestCapabilityDetectsDoubleFree(t *testing.T) {
	res := run(t, doubleFreeProgram, cost.Capability(), func(p *kernel.Process) interp.Runtime {
		return capability.New(p)
	})
	var te *capability.TemporalError
	if !errors.As(res.Err, &te) || !te.Double {
		t.Fatalf("expected double-free TemporalError, got %v", res.Err)
	}
}

func TestCapabilityCleanRunAndMetadataCost(t *testing.T) {
	res := run(t, cleanChurn, cost.Capability(), func(p *kernel.Process) interp.Runtime {
		return capability.New(p)
	})
	if res.Err != nil {
		t.Fatalf("clean program failed under capability: %v", res.Err)
	}
	if res.Machine.Output() != "59700\n" {
		t.Fatalf("output = %q", res.Machine.Output())
	}
}

func TestAllBaselinesAgreeOnCleanOutput(t *testing.T) {
	want := "59700\n"
	configs := []struct {
		name  string
		model cost.Model
		mk    func(*kernel.Process) interp.Runtime
	}{
		{"efence", cost.Default(), func(p *kernel.Process) interp.Runtime { return efence.New(p) }},
		{"valgrind", cost.Valgrind(), func(p *kernel.Process) interp.Runtime { return valgrind.New(p) }},
		{"capability", cost.Capability(), func(p *kernel.Process) interp.Runtime { return capability.New(p) }},
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			res := run(t, cleanChurn, c.model, c.mk)
			if res.Err != nil {
				t.Fatalf("%s failed: %v", c.name, res.Err)
			}
			if got := res.Machine.Output(); got != want {
				t.Fatalf("%s output %q, want %q", c.name, got, want)
			}
		})
	}
}
