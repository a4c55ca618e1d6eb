package safety

// Witness reconstruction. The dataflow fixpoints record
// *that* a site may be freed at a program point but not *why*; this file
// recovers a why — a shortest interprocedural derivation — after the fact,
// so only sites that actually appear in findings pay for it.
//
// Two distance maps per site s, both over the call graph:
//
//   exitDist[f]  — the cheapest derivation of "a call to f may free s":
//                  either f itself contains a free whose points-to set has s
//                  (cost 1), or f calls g with exitDist[g] (cost 1 +
//                  exitDist[g]).
//
//   entryDist[f] — the cheapest derivation of "s may already be freed when
//                  f is entered": some reachable callsite of f in caller c
//                  where s is may-freed just before the call (cost of that
//                  fact + 1 for the callsite step). main has no callers, so
//                  entryDist[main] stays unset — exactly mirroring
//                  entryMay[main] = ∅.
//
// "May-freed just before point p in f" is in turn the cheaper of a
// generator in f that can execute strictly before p (a free, or a call with
// finite exitDist) and entryDist[f]. Both fixpoints only ever lower
// positive integer costs, so they terminate; and at the fixpoint each
// stored via-edge is exactly one cheaper than the fact it derives, so the
// step reconstruction below walks strictly decreasing costs and terminates
// too. Because the maps mirror the dataflow's own transfer functions, every
// fact the fixpoint in analyze.go derives has a finite-cost derivation here; the
// nil returns are belt-and-braces.

import "math"

// genPos identifies a may-freed generator: gens[gi] of function fn.
type genPos struct {
	fn string
	gi int
}

// siteDeriv holds the shortest-derivation structure for one site.
type siteDeriv struct {
	s         int
	exitDist  map[string]int
	exitVia   map[string]genPos
	entryDist map[string]int
	entryVia  map[string]genPos // the callsite generator in the caller
}

func (a *analysis) deriv(s int) *siteDeriv {
	if d, ok := a.derivs[s]; ok {
		return d
	}
	d := &siteDeriv{
		s:         s,
		exitDist:  make(map[string]int),
		exitVia:   make(map[string]genPos),
		entryDist: make(map[string]int),
		entryVia:  make(map[string]genPos),
	}
	for changed := true; changed; {
		changed = false
		for _, fname := range a.order {
			fi := a.finfo[fname]
			if fi == nil {
				continue
			}
			for gi, g := range fi.gens {
				c := d.genCost(g)
				if c < 0 {
					continue
				}
				if cur, ok := d.exitDist[fname]; !ok || c < cur {
					d.exitDist[fname] = c
					d.exitVia[fname] = genPos{fname, gi}
					changed = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, caller := range a.order {
			fi := a.finfo[caller]
			if fi == nil {
				continue
			}
			for gi, g := range fi.gens {
				if g.callee == "" {
					continue
				}
				mc, _, _ := d.mayDistAt(a, caller, g.b, g.i)
				if mc < 0 {
					continue
				}
				c := mc + 1
				if cur, ok := d.entryDist[g.callee]; !ok || c < cur {
					d.entryDist[g.callee] = c
					d.entryVia[g.callee] = genPos{caller, gi}
					changed = true
				}
			}
		}
	}
	a.derivs[s] = d
	return d
}

// genCost is the cost of realizing the generator's may-freed effect on site
// d.s, or -1 if the generator cannot free it (under current exitDist).
func (d *siteDeriv) genCost(g gen) int {
	if g.callee == "" {
		if g.bits.Has(d.s) {
			return 1
		}
		return -1
	}
	if ed, ok := d.exitDist[g.callee]; ok {
		return ed + 1
	}
	return -1
}

// mayDistAt returns the cheapest derivation of "d.s may be freed just
// before point (b, i) of fname": (cost, generator index or -1, viaEntry).
// Intra-function generators win ties over the entry fact so witnesses stay
// as local as possible. Returns cost -1 when no derivation exists.
func (d *siteDeriv) mayDistAt(a *analysis, fname string, b, i int) (int, int, bool) {
	fi := a.finfo[fname]
	best, bestGen := math.MaxInt, -1
	for gi, g := range fi.gens {
		if !fi.strictlyBefore(g.b, g.i, b, i) {
			continue
		}
		if c := d.genCost(g); c >= 0 && c < best {
			best, bestGen = c, gi
		}
	}
	if ec, ok := d.entryDist[fname]; ok && ec < best {
		return ec, -1, true
	}
	if bestGen < 0 {
		return -1, -1, false
	}
	return best, bestGen, false
}

// exitSteps expands exitVia[fname] into witness steps: the originating free
// first, then the call chain innermost-first.
func (d *siteDeriv) exitSteps(a *analysis, fname string) []WitnessStep {
	gp, ok := d.exitVia[fname]
	if !ok {
		return nil
	}
	g := a.finfo[gp.fn].gens[gp.gi]
	if g.callee == "" {
		return []WitnessStep{{Site: g.label, Role: "free"}}
	}
	inner := d.exitSteps(a, g.callee)
	if inner == nil {
		return nil
	}
	return append(inner, WitnessStep{Site: g.label, Role: "call"})
}

// mayFreedSteps expands a "may-freed before (b, i) in fname" fact.
func (d *siteDeriv) mayFreedSteps(a *analysis, fname string, b, i int) []WitnessStep {
	_, gi, viaEntry := d.mayDistAt(a, fname, b, i)
	switch {
	case viaEntry:
		return d.entrySteps(a, fname)
	case gi >= 0:
		g := a.finfo[fname].gens[gi]
		if g.callee == "" {
			return []WitnessStep{{Site: g.label, Role: "free"}}
		}
		inner := d.exitSteps(a, g.callee)
		if inner == nil {
			return nil
		}
		return append(inner, WitnessStep{Site: g.label, Role: "call"})
	default:
		return nil
	}
}

// entrySteps expands entryVia[fname]: the derivation at the caller's
// callsite, then the callsite itself as the transfer into fname.
func (d *siteDeriv) entrySteps(a *analysis, fname string) []WitnessStep {
	gp, ok := d.entryVia[fname]
	if !ok {
		return nil
	}
	g := a.finfo[gp.fn].gens[gp.gi]
	prefix := d.mayFreedSteps(a, gp.fn, g.b, g.i)
	if prefix == nil {
		return nil
	}
	return append(prefix, WitnessStep{Site: g.label, Role: "call"})
}

// witnessFor builds the full chain for a finding: the derivation of "site s
// may be freed at the use point", closed with the use itself.
func (a *analysis) witnessFor(fname string, ub, ui int, useSite string, s int) []WitnessStep {
	d := a.deriv(s)
	steps := d.mayFreedSteps(a, fname, ub, ui)
	if steps == nil {
		return nil
	}
	return append(steps, WitnessStep{Site: useSite, Role: "use"})
}
