package experiment

import (
	"testing"

	"repro/internal/workload"
)

// staticElidable lists the workloads where the static safety analysis
// proves at least one allocation site never-freed with allocation
// dominating every use — the only programs where elision can actually
// fire. Besides {bisort, mst, perimeter, power, treeadd}, the site-granular
// analysis elides never-freed sites a unification analysis would lump into
// freed classes: bh and em3d (shared index/cursor variables), ftpd and
// telnetd (per-session scratch buffers next to freed transfer buffers), and
// the running example (the never-freed list head next to the freed tail
// nodes). Everything else frees every allocation site it has.
// TestSoundnessGate pins the exact sites.
var staticElidable = map[string]bool{
	"bisort": true, "mst": true, "perimeter": true, "power": true, "treeadd": true,
	"bh": true, "em3d": true, "ftpd": true, "telnetd": true, "running-example": true,
}

// TestOursStaticNeverCostsMore: the proof-guided configuration must never
// issue more syscalls than plain shadow pages, must issue strictly fewer
// whenever any allocation was elided, and must never take the elision-miss
// path (a miss would mean the static proof was wrong).
func TestOursStaticNeverCostsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	for _, w := range workload.All() {
		ours, err := Run(w, Ours, Options{})
		if err != nil {
			t.Fatalf("%s/ours: %v", w.Name, err)
		}
		static, err := Run(w, OursStatic, Options{})
		if err != nil {
			t.Fatalf("%s/ours+static: %v", w.Name, err)
		}
		if static.ElisionMisses != 0 {
			t.Errorf("%s: %d elision misses — a statically elided object was freed",
				w.Name, static.ElisionMisses)
		}
		if static.Counters.Syscalls > ours.Counters.Syscalls {
			t.Errorf("%s: ours+static made %d syscalls vs %d for ours",
				w.Name, static.Counters.Syscalls, ours.Counters.Syscalls)
		}
		if static.ElidedAllocs > 0 && static.Counters.Syscalls >= ours.Counters.Syscalls {
			t.Errorf("%s: %d allocations elided yet syscalls did not drop (%d vs %d)",
				w.Name, static.ElidedAllocs, static.Counters.Syscalls, ours.Counters.Syscalls)
		}
		if (static.ElidedAllocs > 0) != staticElidable[w.Name] {
			t.Errorf("%s: elided %d allocations, expected elidable=%v",
				w.Name, static.ElidedAllocs, staticElidable[w.Name])
		}
		if static.Cycles > ours.Cycles {
			t.Errorf("%s: ours+static slower than ours (%d vs %d cycles)",
				w.Name, static.Cycles, ours.Cycles)
		}
	}
}

// TestOursStaticIdenticalDetection: eliding proven-safe allocations must not
// change what the runtime detects — same output, same dangling verdict, same
// detection count on every workload.
func TestOursStaticIdenticalDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	for _, w := range workload.All() {
		ours, err := Run(w, Ours, Options{})
		if err != nil {
			t.Fatalf("%s/ours: %v", w.Name, err)
		}
		static, err := Run(w, OursStatic, Options{})
		if err != nil {
			t.Fatalf("%s/ours+static: %v", w.Name, err)
		}
		if static.DanglingDetected != ours.DanglingDetected {
			t.Errorf("%s: detected %d dangling uses under ours+static vs %d under ours",
				w.Name, static.DanglingDetected, ours.DanglingDetected)
		}
		if (static.Err == nil) != (ours.Err == nil) {
			t.Errorf("%s: error divergence: ours+static=%v ours=%v",
				w.Name, static.Err, ours.Err)
		}
		if static.Output != ours.Output {
			t.Errorf("%s: output diverged under ours+static", w.Name)
		}
	}
}

// TestOursStaticElidesTreeadd is the fast smoke test (runs even with
// -short): treeadd never frees, so every one of its tree-node allocations
// should skip shadow-page setup, and the syscall saving should be visible.
func TestOursStaticElidesTreeadd(t *testing.T) {
	w, err := workload.ByName("treeadd")
	if err != nil {
		t.Fatal(err)
	}
	ours, err := Run(w, Ours, Options{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(w, OursStatic, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if static.ElidedAllocs == 0 {
		t.Fatal("treeadd elided no allocations")
	}
	if static.ElisionMisses != 0 {
		t.Fatalf("treeadd recorded %d elision misses", static.ElisionMisses)
	}
	if static.Counters.Syscalls >= ours.Counters.Syscalls {
		t.Fatalf("syscalls did not drop: %d vs %d",
			static.Counters.Syscalls, ours.Counters.Syscalls)
	}
	if static.Output != ours.Output {
		t.Fatal("treeadd output diverged under elision")
	}
}

// TestOursStaticStillDetectsRunningExample: the Figure 1 bug must still be
// caught at run time under ours+static — the analysis flags that use as
// POSSIBLE, so none of the freed sites is elided. It does elide exactly one
// allocation: the list head, which is never freed. Eliding it must not
// affect detection of the dangling p->next use.
func TestOursStaticStillDetectsRunningExample(t *testing.T) {
	w, err := workload.ByName("running-example")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(w, OursStatic, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Err == nil {
		t.Fatal("running example's dangling use not reported under ours+static")
	}
	if m.ElidedAllocs != 1 {
		t.Fatalf("running example elided %d allocations, want exactly 1 (the never-freed head)", m.ElidedAllocs)
	}
	if m.ElisionMisses != 0 {
		t.Fatalf("running example recorded %d elision misses", m.ElisionMisses)
	}
	if m.DanglingDetected == 0 {
		t.Fatal("dangling detection counter not incremented")
	}
}
