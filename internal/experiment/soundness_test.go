package experiment

// The machine-checked soundness gate: every workload and every corpus
// program is analyzed statically and then run fully guarded, and the run is
// held to the analysis's claims.
//
//	(a) no use the analysis classified PROVEN-SAFE ever traps;
//	(b) the elision-miss counter stays zero (an elided — proven
//	    never-freed — object was never actually freed);
//	(c) every POSSIBLE finding carries a free→…→use witness
//	    (safety.Report.WitnessViolations);
//	(d) the elidable malloc sites are exactly the pinned ones, so any
//	    precision change shows up here as a deliberate edit.
//
// CI runs this under -race (scripts/check.sh, ci.yml). The driver package's
// TestDifferentialPointsToSubset fuzzes (c) and the points-to subset the
// analysis rests on over random programs.

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minic/driver"
	"repro/internal/minic/interp"
	"repro/internal/minic/safety"
	"repro/internal/runtimes"
	"repro/internal/sim/kernel"
	"repro/internal/workload"
)

// gateSource is one program the gate covers.
type gateSource struct {
	name string
	src  string
}

// gateSources returns every workload plus every corpus program under
// examples/minic.
func gateSources(t *testing.T) []gateSource {
	t.Helper()
	var out []gateSource
	for _, w := range workload.All() {
		out = append(out, gateSource{"workload/" + w.Name, w.Source})
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "minic", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no corpus programs under examples/minic")
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".c")
		out = append(out, gateSource{"corpus/" + name, string(b)})
	}
	return out
}

// runGuardedStatic compiles src through the static pipeline (safety
// analysis, elision marking, APA) and runs it once under the shadow runtime
// with never-reuse — full guarding. It returns the program's terminating error
// (nil, or the detected *core.DanglingError) and the remapper's counters.
func runGuardedStatic(t *testing.T, src string) (error, core.Stats) {
	t.Helper()
	prog, _, _, err := driver.CompileStatic(src)
	if err != nil {
		t.Fatalf("compile static: %v", err)
	}
	var shadow *runtimes.Shadow
	mkRT := func(p *kernel.Process) interp.Runtime {
		shadow = runtimes.NewShadow(p, core.Config{})
		return shadow
	}
	cfg := kernel.DefaultConfig()
	res, err := driver.Run(prog, kernel.NewSystem(cfg), cfg, mkRT, interp.Config{StepLimit: 1 << 26})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res.Err, shadow.Remapper().Stats()
}

// pinnedElidable lists, per gate source, the malloc sites the analysis
// proves elidable; every source not listed has none.
var pinnedElidable = map[string][]string{
	"workload/ftpd":            {"do_command:38", "do_command:39", "do_command:40", "do_command:41"},
	"workload/telnetd":         {"main:20", "main:23"},
	"workload/bh":              {"main:16"},
	"workload/bisort":          {"build:15"},
	"workload/em3d":            {"build_side:18"},
	"workload/mst":             {"addedge:17", "main:36"},
	"workload/perimeter":       {"build:18"},
	"workload/power":           {"build:10", "build:14"},
	"workload/treeadd":         {"build:6"},
	"workload/running-example": {"main:37"},
	"corpus/compiler":          {"main:39"},
	"corpus/olden":             {"main:42"},
}

func TestSoundnessGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	seen := map[string]bool{}
	for _, gs := range gateSources(t) {
		gs := gs
		seen[gs.name] = true
		t.Run(gs.name, func(t *testing.T) {
			prog, err := driver.Compile(gs.src)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			rep, err := safety.Analyze(prog)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}

			// (c) the witness obligation.
			for _, viol := range rep.WitnessViolations() {
				t.Errorf("witness: %s", viol)
			}

			// (d) the exact elision result.
			if got, want := rep.ElidableSites(), pinnedElidable[gs.name]; strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("elidable sites = %v, want %v", got, want)
			}

			// (a) + (b): run fully guarded under the proofs.
			progErr, stats := runGuardedStatic(t, gs.src)
			if stats.ElisionMisses != 0 {
				t.Errorf("%d elision misses — a statically elided object was freed",
					stats.ElisionMisses)
			}
			if de, ok := progErr.(*core.DanglingError); ok {
				for _, site := range rep.ProvenUseSites() {
					if site == de.UseSite {
						t.Errorf("trap at %s, which the analysis classified PROVEN-SAFE", de.UseSite)
					}
				}
			} else if progErr != nil {
				t.Errorf("guarded run failed: %v", progErr)
			}
		})
	}
	for name := range pinnedElidable {
		if !seen[name] {
			t.Errorf("pinnedElidable names %s, which is not a gate source", name)
		}
	}
}
