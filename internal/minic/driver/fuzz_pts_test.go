package driver

// Differential testing of the points-to analyses the static safety analysis
// rests on: on random programs, every inclusion-based points-to set (pta2,
// which safety.Analyze consumes) must lie inside the unification class (pta,
// which pool allocation consumes) of the same register, every POSSIBLE
// finding must carry a free→…→use witness, and never-freed buffers must
// elide. This is the fuzzed half of the soundness gate; the experiment
// package runs the real workloads guarded under the same analysis.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/minic/ir"
	"repro/internal/minic/pta"
	"repro/internal/minic/pta2"
	"repro/internal/minic/safety"
)

// checkPointsToSubset asserts that for every register, the pta2 points-to
// set (a set of per-site abstract objects) lies inside the single pta class
// the register points to — i.e. inclusion-based resolution only ever splits
// unification's classes, never invents new aliases.
func checkPointsToSubset(t *testing.T, label string, g1 *pta.Graph, g2 *pta2.Graph) {
	t.Helper()
	siteClass := map[*ir.Malloc]*pta.Node{}
	for _, n := range g1.HeapNodes() {
		for _, m := range n.Sites {
			siteClass[m] = n
		}
	}
	for _, k := range g2.RegKeys() {
		var heap []*pta2.Object
		for _, o := range g2.RegPointsTo(k.Fn, k.Reg) {
			if o.Kind == pta2.ObjHeap {
				heap = append(heap, o)
			}
		}
		if len(heap) == 0 {
			continue
		}
		n1 := g1.RegPointsTo(k.Fn, k.Reg)
		if n1 == nil {
			t.Errorf("%s: %s r%d: pta2 points to heap but pta tracks no class", label, k.Fn, k.Reg)
			continue
		}
		n1 = n1.Find()
		for _, o := range heap {
			c, ok := siteClass[o.Site]
			if !ok {
				t.Errorf("%s: %s r%d: pta2 object %s has no pta class", label, k.Fn, k.Reg, o.Label)
				continue
			}
			if c.Find() != n1 {
				t.Errorf("%s: %s r%d: pta2 points to %s outside the pta class (id %d != %d)",
					label, k.Fn, k.Reg, o.Label, c.Find().ID, n1.ID)
			}
		}
	}
}

// TestDifferentialPointsToSubset fuzzes the points-to subset and the witness
// obligation on random programs as generated (every buffer freed) and with
// the frees stripped (every buffer never-freed, so every buffer must elide).
func TestDifferentialPointsToSubset(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := &progGen{r: rand.New(rand.NewSource(int64(4000 + seed)))}
			src := g.generate()
			variants := []struct {
				name string
				src  string
			}{{"freed", src}}
			if len(g.bufs) > 0 {
				leaky := src
				for _, b := range g.bufs {
					leaky = strings.Replace(leaky, fmt.Sprintf("  free(%s);\n", b.name), "", 1)
				}
				variants = append(variants, struct {
					name string
					src  string
				}{"leaky", leaky})
			}
			for _, v := range variants {
				prog, err := Compile(v.src)
				if err != nil {
					t.Fatalf("%s: compile: %v\nprogram:\n%s", v.name, err, v.src)
				}
				g1, err := pta.Analyze(prog)
				if err != nil {
					t.Fatalf("%s: pta: %v", v.name, err)
				}
				g2, err := pta2.Analyze(prog)
				if err != nil {
					t.Fatalf("%s: pta2: %v", v.name, err)
				}
				checkPointsToSubset(t, v.name, g1, g2)

				rep, err := safety.Analyze(prog)
				if err != nil {
					t.Fatalf("%s: analyze: %v", v.name, err)
				}
				for _, viol := range rep.WitnessViolations() {
					t.Errorf("%s: %s", v.name, viol)
				}
				if v.name == "leaky" && len(rep.ElidableSites()) < len(g.bufs) {
					t.Errorf("leaky: elides %v, want all %d never-freed buffers\nprogram:\n%s",
						rep.ElidableSites(), len(g.bufs), v.src)
				}
				if t.Failed() {
					t.Fatalf("%s variant failed\nprogram:\n%s", v.name, v.src)
				}
			}
		})
	}
}
