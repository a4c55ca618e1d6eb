package driver

// Differential testing: generate random, memory-safe mini-C programs and
// check that every configuration — native, pool-allocated, pool-allocated
// with detection, detection without pools — produces byte-identical output.
// This exercises the whole stack (parser, checker, irgen, points-to, escape,
// APA transformation, interpreter, pool runtime, shadow-page remapper) far
// beyond the hand-written cases.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minic/interp"
	"repro/internal/runtimes"
	"repro/internal/sim/kernel"
)

// progGen generates random well-formed, terminating, memory-safe programs.
type progGen struct {
	r  *rand.Rand
	sb strings.Builder
	// readable are in-scope int variables (including loop counters).
	readable []string
	// mutable are in-scope variables assignments may target. Loop
	// counters are excluded: reassigning an active counter could make a
	// loop nonterminating.
	mutable []string
	// bufs are heap buffers with their element counts. Buffers are only
	// created at the top level of main, so they remain in scope for the
	// final checksum-and-free block.
	bufs []genBuf
	// nesting tracks block depth (buffers only allocate at 0).
	nesting int
	// id generates fresh names.
	id int
}

type genBuf struct {
	name string
	n    int
}

func (g *progGen) fresh(prefix string) string {
	g.id++
	return fmt.Sprintf("%s%d", prefix, g.id)
}

func (g *progGen) emit(format string, args ...any) {
	fmt.Fprintf(&g.sb, format+"\n", args...)
}

// enterBlock snapshots scope state; the returned func restores it. Names
// declared inside the block become invisible afterwards.
func (g *progGen) enterBlock() func() {
	nr, nm := len(g.readable), len(g.mutable)
	g.nesting++
	return func() {
		g.readable = g.readable[:nr]
		g.mutable = g.mutable[:nm]
		g.nesting--
	}
}

// intExpr produces a random integer expression over in-scope variables.
func (g *progGen) intExpr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(200)-100)
		default:
			if len(g.readable) == 0 {
				return fmt.Sprintf("%d", g.r.Intn(50))
			}
			return g.readable[g.r.Intn(len(g.readable))]
		}
	}
	a := g.intExpr(depth - 1)
	b := g.intExpr(depth - 1)
	switch g.r.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		// Division guarded against zero and INT_MIN/-1 style traps by
		// a positive denominator.
		return fmt.Sprintf("(%s / ((%s %% 7) * (%s %% 7) + 1))", a, b, b)
	case 4:
		return fmt.Sprintf("(%s %% ((%s %% 5) * (%s %% 5) + 1))", a, b, b)
	case 5:
		return fmt.Sprintf("(%s ^ %s)", a, b)
	default:
		return fmt.Sprintf("(%s < %s)", a, b)
	}
}

// index produces a guaranteed-in-bounds index expression for a buffer of n
// elements, assigned to a fresh variable first so the bound is visible.
func (g *progGen) index(n int) string {
	v := g.fresh("ix")
	g.emit("  int %s = %s %% %d;", v, g.intExpr(1), n)
	g.emit("  if (%s < 0) %s = -%s;", v, v, v)
	return v
}

// stmt emits one random statement.
func (g *progGen) stmt(depth int) {
	switch g.r.Intn(7) {
	case 0: // new int variable
		v := g.fresh("v")
		g.emit("  int %s = %s;", v, g.intExpr(2))
		g.readable = append(g.readable, v)
		g.mutable = append(g.mutable, v)
	case 1: // assignment (never to a loop counter)
		if len(g.mutable) > 0 {
			v := g.mutable[g.r.Intn(len(g.mutable))]
			g.emit("  %s = %s;", v, g.intExpr(2))
		}
	case 2: // print
		g.emit("  print_int(%s);", g.intExpr(2))
	case 3: // bounded loop
		if depth > 0 {
			i := g.fresh("i")
			g.emit("  int %s;", i)
			g.readable = append(g.readable, i)
			g.emit("  for (%s = 0; %s < %d; %s = %s + 1) {", i, i, 2+g.r.Intn(6), i, i)
			leave := g.enterBlock()
			for k := 0; k < 1+g.r.Intn(2); k++ {
				g.stmt(depth - 1)
			}
			leave()
			g.emit("  }")
		}
	case 4: // conditional
		if depth > 0 {
			g.emit("  if (%s) {", g.intExpr(2))
			leave := g.enterBlock()
			g.stmt(depth - 1)
			leave()
			if g.r.Intn(2) == 0 {
				g.emit("  } else {")
				leave := g.enterBlock()
				g.stmt(depth - 1)
				leave()
			}
			g.emit("  }")
		}
	case 5: // heap buffer allocation (top level only, so the epilogue
		// can free it)
		if g.nesting == 0 && len(g.bufs) < 6 {
			n := 4 + g.r.Intn(12)
			b := g.fresh("buf")
			g.emit("  int *%s = (int*)malloc(%d * sizeof(int));", b, n)
			// Initialize every slot so later reads are defined.
			i := g.fresh("i")
			g.emit("  int %s;", i)
			g.readable = append(g.readable, i)
			g.emit("  for (%s = 0; %s < %d; %s = %s + 1) %s[%s] = %s * 3;",
				i, i, n, i, i, b, i, i)
			g.bufs = append(g.bufs, genBuf{name: b, n: n})
		}
	default: // buffer read/write
		if len(g.bufs) > 0 {
			b := g.bufs[g.r.Intn(len(g.bufs))]
			if g.r.Intn(2) == 0 {
				ix := g.index(b.n)
				g.emit("  %s[%s] = %s;", b.name, ix, g.intExpr(1))
			} else {
				ix := g.index(b.n)
				g.emit("  print_int(%s[%s]);", b.name, ix)
			}
		}
	}
}

// generate builds a whole program: a helper function plus main. Every
// allocated buffer is freed exactly once at the end of its scope, keeping
// the program memory-safe by construction.
func (g *progGen) generate() string {
	g.emit("// randomly generated memory-safe program")
	g.emit("int helper(int a, int b) {")
	g.emit("  int acc = a * 3 - b;")
	g.emit("  int i;")
	g.emit("  for (i = 0; i < 5; i = i + 1) acc = acc + i * a;")
	g.emit("  return acc;")
	g.emit("}")
	g.emit("void main() {")
	g.readable = append(g.readable, "seedv")
	g.mutable = append(g.mutable, "seedv")
	g.emit("  int seedv = %d;", g.r.Intn(1000))
	g.emit("  seedv = helper(seedv, %d);", g.r.Intn(100))
	for i := 0; i < 6+g.r.Intn(10); i++ {
		g.stmt(2)
	}
	// Checksum over every buffer, then free them all exactly once.
	for _, b := range g.bufs {
		i := g.fresh("i")
		g.emit("  int %s;", i)
		g.emit("  int sum%s = 0;", b.name)
		g.emit("  for (%s = 0; %s < %d; %s = %s + 1) sum%s = sum%s + %s[%s];",
			i, i, b.n, i, i, b.name, b.name, b.name, i)
		g.emit("  print_int(sum%s);", b.name)
		g.emit("  free(%s);", b.name)
	}
	g.emit("  print_int(seedv);")
	g.emit("}")
	return g.sb.String()
}

// runFuzzConfig compiles (optionally with pools) and runs a program.
func runFuzzConfig(src string, withPools bool, mkRT func(*kernel.Process) interp.Runtime) (string, error) {
	prog, err := Compile(src)
	if withPools {
		prog, _, err = CompileWithPools(src)
	}
	if err != nil {
		return "", fmt.Errorf("compile: %w", err)
	}
	cfg := kernel.DefaultConfig()
	sys := kernel.NewSystem(cfg)
	res, err := Run(prog, sys, cfg, mkRT, interp.Config{StepLimit: 1 << 24})
	if err != nil {
		return "", err
	}
	if res.Err != nil {
		return "", fmt.Errorf("program error: %w", res.Err)
	}
	return res.Machine.Output(), nil
}

// TestDifferentialRandomPrograms is the differential fuzzer: for each seed,
// the program must run cleanly and identically under every configuration.
func TestDifferentialRandomPrograms(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := &progGen{r: rand.New(rand.NewSource(int64(seed)))}
			src := g.generate()

			native, err := runFuzzConfig(src, false, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewNative(p)
			})
			if err != nil {
				t.Fatalf("native: %v\nprogram:\n%s", err, src)
			}
			pa, err := runFuzzConfig(src, true, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewNative(p)
			})
			if err != nil {
				t.Fatalf("pa: %v\nprogram:\n%s", err, src)
			}
			shadow, err := runFuzzConfig(src, true, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewShadow(p, core.Config{})
			})
			if err != nil {
				t.Fatalf("shadow: %v\nprogram:\n%s", err, src)
			}
			shadowNoPA, err := runFuzzConfig(src, false, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewShadow(p, core.Config{})
			})
			if err != nil {
				t.Fatalf("shadow-nopa: %v\nprogram:\n%s", err, src)
			}

			if pa != native {
				t.Fatalf("PA output diverged\nnative: %q\npa: %q\nprogram:\n%s", native, pa, src)
			}
			if shadow != native {
				t.Fatalf("shadow output diverged\nnative: %q\nshadow: %q\nprogram:\n%s", native, shadow, src)
			}
			if shadowNoPA != native {
				t.Fatalf("shadow-nopa output diverged\nnative: %q\ngot: %q\nprogram:\n%s", native, shadowNoPA, src)
			}
		})
	}
}

// runFuzzStatic compiles through the static safety pipeline (analysis, the
// Elidable marking, then APA) and runs under the shadow runtime, returning
// the output together with the remapper's counters.
func runFuzzStatic(src string) (string, core.Stats, error) {
	prog, _, _, err := CompileStatic(src)
	if err != nil {
		return "", core.Stats{}, fmt.Errorf("compile static: %w", err)
	}
	var shadow *runtimes.Shadow
	mkRT := func(p *kernel.Process) interp.Runtime {
		shadow = runtimes.NewShadow(p, core.Config{})
		return shadow
	}
	cfg := kernel.DefaultConfig()
	sys := kernel.NewSystem(cfg)
	res, err := Run(prog, sys, cfg, mkRT, interp.Config{StepLimit: 1 << 24})
	if err != nil {
		return "", core.Stats{}, err
	}
	stats := shadow.Remapper().Stats()
	if res.Err != nil {
		return "", stats, fmt.Errorf("program error: %w", res.Err)
	}
	return res.Machine.Output(), stats, nil
}

// TestDifferentialStaticElision runs each random program through the static
// pipeline twice: once as generated (every buffer freed — nothing may be
// elided, and the elision-miss counter must stay zero) and once with the
// frees stripped (every buffer leaks — the analysis should now prove the
// buffers never-freed and elide their shadow pages). Output must match the
// native run in all cases.
func TestDifferentialStaticElision(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := &progGen{r: rand.New(rand.NewSource(int64(2000 + seed)))}
			src := g.generate()

			native, err := runFuzzConfig(src, false, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewNative(p)
			})
			if err != nil {
				t.Fatalf("native: %v\nprogram:\n%s", err, src)
			}
			out, stats, err := runFuzzStatic(src)
			if err != nil {
				t.Fatalf("static: %v\nprogram:\n%s", err, src)
			}
			if out != native {
				t.Fatalf("static output diverged\nnative: %q\nstatic: %q\nprogram:\n%s", native, out, src)
			}
			if stats.ElisionMisses != 0 {
				t.Fatalf("%d elision misses on a fully-freed program\nprogram:\n%s", stats.ElisionMisses, src)
			}
			if stats.ElidedAllocs != 0 {
				t.Fatalf("elided %d allocations of freed buffers\nprogram:\n%s", stats.ElidedAllocs, src)
			}

			if len(g.bufs) == 0 {
				return
			}
			// Leaky variant: drop every free; the classes become
			// never-freed and allocation dominates each use, so the
			// analysis should elide them all.
			leaky := src
			for _, b := range g.bufs {
				leaky = strings.Replace(leaky, fmt.Sprintf("  free(%s);\n", b.name), "", 1)
			}
			nativeLeaky, err := runFuzzConfig(leaky, false, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewNative(p)
			})
			if err != nil {
				t.Fatalf("native leaky: %v\nprogram:\n%s", err, leaky)
			}
			outLeaky, statsLeaky, err := runFuzzStatic(leaky)
			if err != nil {
				t.Fatalf("static leaky: %v\nprogram:\n%s", err, leaky)
			}
			if outLeaky != nativeLeaky {
				t.Fatalf("leaky static output diverged\nnative: %q\nstatic: %q\nprogram:\n%s",
					nativeLeaky, outLeaky, leaky)
			}
			if statsLeaky.ElidedAllocs == 0 {
				t.Fatalf("no allocations elided in the leaky variant\nprogram:\n%s", leaky)
			}
			if statsLeaky.ElisionMisses != 0 {
				t.Fatalf("%d elision misses in the leaky variant\nprogram:\n%s",
					statsLeaky.ElisionMisses, leaky)
			}
		})
	}
}

// TestDifferentialStaticUseAfterFreeStillCaught injects a stale read into a
// random program, then checks the static pipeline's runtime still traps it:
// eliding proven-safe allocations must never weaken detection of the rest.
func TestDifferentialStaticUseAfterFreeStillCaught(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := &progGen{r: rand.New(rand.NewSource(int64(3000 + seed)))}
			src := g.generate()
			if len(g.bufs) == 0 {
				t.Skip("no buffers generated")
			}
			victim := g.bufs[g.r.Intn(len(g.bufs))]
			bug := fmt.Sprintf("  print_int(%s[0]);\n}\n", victim.name)
			src = strings.Replace(src, "  print_int(seedv);\n}\n", bug, 1)

			_, stats, err := runFuzzStatic(src)
			if err == nil {
				t.Fatalf("static pipeline missed the injected UAF\nprogram:\n%s", src)
			}
			if !strings.Contains(err.Error(), "dangling") {
				t.Fatalf("unexpected error kind: %v\nprogram:\n%s", err, src)
			}
			if stats.ElisionMisses != 0 {
				t.Fatalf("%d elision misses\nprogram:\n%s", stats.ElisionMisses, src)
			}
		})
	}
}

// TestDifferentialUseAfterFreeAlwaysCaught plants a use-after-free at a
// random point after the frees and checks the detector always reports it
// while native mode stays silent.
func TestDifferentialUseAfterFreeAlwaysCaught(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := &progGen{r: rand.New(rand.NewSource(int64(1000 + seed)))}
			src := g.generate()
			if len(g.bufs) == 0 {
				t.Skip("no buffers generated")
			}
			// Re-generate with an injected stale access: read a
			// random buffer after the free block.
			victim := g.bufs[g.r.Intn(len(g.bufs))]
			bug := fmt.Sprintf("  print_int(%s[0]);\n}\n", victim.name)
			src = strings.Replace(src, "  print_int(seedv);\n}\n", bug, 1)

			if _, err := runFuzzConfig(src, false, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewNative(p)
			}); err != nil {
				t.Fatalf("native should run the buggy program silently: %v\nprogram:\n%s", err, src)
			}

			_, err := runFuzzConfig(src, true, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewShadow(p, core.Config{})
			})
			if err == nil {
				t.Fatalf("detector missed the injected UAF\nprogram:\n%s", src)
			}
			if !strings.Contains(err.Error(), "dangling") {
				t.Fatalf("unexpected error kind: %v\nprogram:\n%s", err, src)
			}
		})
	}
}

// genFaultSpec builds a random kernel fault schedule over the shadow-page
// machinery's syscalls (mremap aliasing, mprotect protection, batched
// mprotect runs). Raw mmap is never targeted: those failures would be plain
// allocator OOM, not the degradation ladder under test.
func genFaultSpec(r *rand.Rand) string {
	calls := []string{"mremap", "mprotect", "mprotect-runs"}
	var rules []string
	for i := 0; i < 1+r.Intn(2); i++ {
		call := calls[r.Intn(len(calls))]
		switch r.Intn(3) {
		case 0: // count burst
			rules = append(rules, fmt.Sprintf("%s:after=%d,times=%d", call, r.Intn(8), 1+r.Intn(4)))
		case 1: // sustained probabilistic pressure
			rules = append(rules, fmt.Sprintf("%s:prob=0.%02d", call, 1+r.Intn(30)))
		default: // VA ceiling (only fresh-VA calls are gated) or EAGAIN burst
			if call == "mremap" {
				rules = append(rules, fmt.Sprintf("%s:vabudget=%d", call, 330+r.Intn(200)))
			} else {
				rules = append(rules, fmt.Sprintf("%s:times=%d,errno=EAGAIN", call, 1+r.Intn(3)))
			}
		}
	}
	return fmt.Sprintf("seed=%d;%s", r.Intn(1<<30), strings.Join(rules, ";"))
}

// runFuzzChaos runs a pool-compiled program under the shadow runtime with a
// fault schedule injected, returning output, the remapper's counters, the
// number of injected faults, and the program's terminating error (nil for a
// clean finish).
func runFuzzChaos(src, spec string) (string, core.Stats, int, error) {
	prog, _, err := CompileWithPools(src)
	if err != nil {
		return "", core.Stats{}, 0, fmt.Errorf("compile: %w", err)
	}
	sched, err := kernel.ParseSchedule(spec)
	if err != nil {
		return "", core.Stats{}, 0, fmt.Errorf("schedule %q: %w", spec, err)
	}
	cfg := kernel.DefaultConfig()
	cfg.Faults = &sched
	sys := kernel.NewSystem(cfg)
	var shadow *runtimes.Shadow
	res, err := Run(prog, sys, cfg, func(p *kernel.Process) interp.Runtime {
		shadow = runtimes.NewShadow(p, core.Config{})
		return shadow
	}, interp.Config{StepLimit: 1 << 24})
	if err != nil {
		return "", core.Stats{}, 0, err
	}
	stats := shadow.Remapper().Stats()
	faults := len(res.Proc.InjectedFaults())
	if hc := shadow.Remapper().HealthCheck(); hc != nil {
		return "", stats, faults, fmt.Errorf("health check: %w", hc)
	}
	return res.Machine.Output(), stats, faults, res.Err
}

// TestDifferentialChaosRandomPrograms pairs random memory-safe programs with
// random fault schedules: every run must complete without error (injected
// faults degrade protection, never availability) and print exactly the
// native output.
func TestDifferentialChaosRandomPrograms(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(4000 + seed)))
			g := &progGen{r: r}
			src := g.generate()
			spec := genFaultSpec(r)

			native, err := runFuzzConfig(src, false, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewNative(p)
			})
			if err != nil {
				t.Fatalf("native: %v\nprogram:\n%s", err, src)
			}
			out, stats, faults, runErr := runFuzzChaos(src, spec)
			if runErr != nil {
				t.Fatalf("chaos run failed under %q: %v\nprogram:\n%s", spec, runErr, src)
			}
			if out != native {
				t.Fatalf("chaos output diverged under %q\nnative: %q\nchaos: %q\nprogram:\n%s",
					spec, native, out, src)
			}
			// Degradation counters only ever move together with injection.
			if faults == 0 &&
				(stats.DegradedAllocs != 0 || stats.TransientRetries != 0 || stats.UnprotectedFrees != 0) {
				t.Fatalf("degraded with zero injected faults under %q: %+v", spec, stats)
			}
		})
	}
}

// TestDifferentialChaosUseAfterFree plants a stale read and runs it under
// random fault schedules: either the detector still traps it, or the victim
// object demonstrably lost protection to injected faults (degraded alloc or
// unprotected free) — a missed detection without a recorded degradation is
// a soundness bug.
func TestDifferentialChaosUseAfterFree(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(5000 + seed)))
			g := &progGen{r: r}
			src := g.generate()
			if len(g.bufs) == 0 {
				t.Skip("no buffers generated")
			}
			victim := g.bufs[g.r.Intn(len(g.bufs))]
			bug := fmt.Sprintf("  print_int(%s[0]);\n}\n", victim.name)
			src = strings.Replace(src, "  print_int(seedv);\n}\n", bug, 1)
			spec := genFaultSpec(r)

			_, stats, _, runErr := runFuzzChaos(src, spec)
			if runErr == nil {
				if stats.DegradedAllocs == 0 && stats.UnprotectedFrees == 0 {
					t.Fatalf("missed UAF under %q with no degradation recorded\nprogram:\n%s", spec, src)
				}
				return
			}
			if !strings.Contains(runErr.Error(), "dangling") {
				t.Fatalf("unexpected error under %q: %v\nprogram:\n%s", spec, runErr, src)
			}
		})
	}
}
