// Package pta2 implements the whole-program points-to analysis the static
// dangling-pointer analysis runs on, over mini-C IR: an inclusion-based (Andersen-style) solver, in contrast to the
// unification-based (Steensgaard-style) analysis in internal/minic/pta.
//
// The difference that matters for the static dangling-pointer analysis is
// granularity. The unification analysis merges abstract objects into equivalence
// classes on every assignment, so two allocation sites whose pointers ever
// flow through a common register — say a shared loop-index variable used to
// subscript two unrelated arrays — collapse into one class, and a free of
// either site poisons both. Here an assignment only induces a *subset*
// constraint (pts(dst) ⊇ pts(src)): every malloc site stays a distinct
// abstract object, every pointer-valued location gets a points-to *set* of
// those objects, and a free only reaches the sites its operand can actually
// reference.
//
// The constraint system is the classic one:
//
//   - address-of   p = &o        pts(p) ∋ o
//   - copy         p = q         pts(p) ⊇ pts(q)
//   - load         p = *q        ∀ o ∈ pts(q): pts(p) ⊇ pts(contents(o))
//   - store        *p = q        ∀ o ∈ pts(p): pts(contents(o)) ⊇ pts(q)
//
// where every addressable object o (frame slot, global, string pool, heap
// site) carries a field-insensitive "contents" variable holding whatever is
// stored into it. The solver is a worklist fixpoint with periodic cycle
// collapsing: strongly connected components of the copy-edge graph provably
// share one points-to set, so they are collapsed onto a single
// representative (the smallest variable ID, for determinism) between
// propagation rounds.
package pta2

import (
	"fmt"
	"sort"

	"repro/internal/minic/dfa"
	"repro/internal/minic/ir"
)

// ObjKind says what storage an abstract object models.
type ObjKind int

// Object kinds.
const (
	// ObjHeap is a heap allocation site (one per static malloc).
	ObjHeap ObjKind = iota + 1
	// ObjSlot is a function frame slot.
	ObjSlot
	// ObjGlobal is a global variable's storage.
	ObjGlobal
	// ObjStr is the shared string-literal pool.
	ObjStr
)

// String implements fmt.Stringer.
func (k ObjKind) String() string {
	switch k {
	case ObjHeap:
		return "heap"
	case ObjSlot:
		return "slot"
	case ObjGlobal:
		return "global"
	case ObjStr:
		return "str"
	default:
		return fmt.Sprintf("objkind(%d)", int(k))
	}
}

// Object is one abstract memory object. Unlike pta.Node, objects are never
// merged: a heap object is exactly one allocation site.
type Object struct {
	// ID orders objects deterministically (creation order, which follows
	// sorted function names and instruction order).
	ID int
	// Kind classifies the storage.
	Kind ObjKind
	// Site is the allocating instruction (heap objects only).
	Site *ir.Malloc
	// Label is a diagnostic name: the "func:line" site label for heap
	// objects, "func+off" for slots, the variable name for globals.
	Label string
	// Fn and Off locate slot objects; Global names global objects.
	Fn     string
	Off    uint64
	Global string

	// contents is the variable holding whatever is stored in the object.
	contents int
}

// Graph is the analysis result.
type Graph struct {
	objs []*Object

	regs    map[regKey]int  // var
	slots   map[slotKey]int // object index
	globals map[string]int  // object index
	params  map[paramKey]int
	rets    map[string]int
	strObj  int

	siteObj map[*ir.Malloc]int // object index
	freeVar map[*ir.Free]int   // var

	// Solver state. Variables are dense ints; parent is the union-find
	// over cycle-collapsed variables (representative = smallest ID).
	nvar   int
	parent []int
	pts    []dfa.BitSet
	succ   []map[int]bool // copy edges: succ[src] ∋ dst means pts(dst) ⊇ pts(src)
	loads  [][]int        // loads[p] = dsts with dst = *p
	stores [][]int        // stores[p] = srcs with *p = src

	// Constraints collected during the scan (solved after sizes are known).
	bases  []baseConstraint
	copies [][2]int // [src, dst]
}

type baseConstraint struct {
	v   int // variable
	obj int // object index
}

type regKey struct {
	fn  string
	reg ir.Reg
}

type slotKey struct {
	fn  string
	off uint64
}

type paramKey struct {
	fn string
	i  int
}

func (g *Graph) newVar() int {
	v := g.nvar
	g.nvar++
	return v
}

func (g *Graph) newObject(kind ObjKind, label string) *Object {
	o := &Object{ID: len(g.objs), Kind: kind, Label: label, contents: g.newVar()}
	g.objs = append(g.objs, o)
	return o
}

func (g *Graph) regVar(fn string, r ir.Reg) int {
	k := regKey{fn, r}
	if v, ok := g.regs[k]; ok {
		return v
	}
	v := g.newVar()
	g.regs[k] = v
	return v
}

func (g *Graph) slotObj(fn string, off uint64) *Object {
	k := slotKey{fn, off}
	if i, ok := g.slots[k]; ok {
		return g.objs[i]
	}
	o := g.newObject(ObjSlot, fmt.Sprintf("%s+%d", fn, off))
	o.Fn, o.Off = fn, off
	g.slots[k] = o.ID
	return o
}

func (g *Graph) globalObj(name string) *Object {
	if i, ok := g.globals[name]; ok {
		return g.objs[i]
	}
	o := g.newObject(ObjGlobal, name)
	o.Global = name
	g.globals[name] = o.ID
	return o
}

func (g *Graph) paramVar(fn string, i int) int {
	k := paramKey{fn, i}
	if v, ok := g.params[k]; ok {
		return v
	}
	v := g.newVar()
	g.params[k] = v
	return v
}

func (g *Graph) retVar(fn string) int {
	if v, ok := g.rets[fn]; ok {
		return v
	}
	v := g.newVar()
	g.rets[fn] = v
	return v
}

// Constraint emitters used during the scan.
func (g *Graph) addrOf(v int, o *Object) { g.bases = append(g.bases, baseConstraint{v, o.ID}) }
func (g *Graph) copyC(dst, src int)      { g.copies = append(g.copies, [2]int{src, dst}) }
func (g *Graph) loadC(dst, addr int)     { g.loads[addr] = append(g.loads[addr], dst) }
func (g *Graph) storeC(addr, src int)    { g.stores[addr] = append(g.stores[addr], src) }

// Analyze runs the analysis over a program.
func Analyze(prog *ir.Program) (*Graph, error) {
	g := &Graph{
		regs:    make(map[regKey]int),
		slots:   make(map[slotKey]int),
		globals: make(map[string]int),
		params:  make(map[paramKey]int),
		rets:    make(map[string]int),
		siteObj: make(map[*ir.Malloc]int),
		freeVar: make(map[*ir.Free]int),
	}
	g.strObj = g.newObject(ObjStr, "<str>").ID

	names := make([]string, 0, len(prog.Funcs))
	for name := range prog.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)

	// Load/store constraint lists are indexed by variable, so size them
	// lazily: collect the raw (dst, addr) pairs first.
	type memC struct{ a, b int } // load: dst=a from addr=b; store: addr=a gets src=b
	var rawLoads, rawStores []memC

	for _, name := range names {
		fn := prog.Funcs[name]

		// Incoming parameter values flow into their spill slots.
		for i, p := range fn.Params {
			slot := g.slotObj(name, p.Offset)
			g.copyC(slot.contents, g.paramVar(name, i))
		}

		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch in := in.(type) {
				case *ir.Copy:
					g.copyC(g.regVar(name, in.Dst), g.regVar(name, in.Src))
				case *ir.Bin:
					// Pointer arithmetic and comparisons: the result
					// may alias either operand — but unlike the
					// unification analysis, the operands themselves
					// stay unrelated.
					g.copyC(g.regVar(name, in.Dst), g.regVar(name, in.A))
					g.copyC(g.regVar(name, in.Dst), g.regVar(name, in.B))
				case *ir.Un:
					g.copyC(g.regVar(name, in.Dst), g.regVar(name, in.A))
				case *ir.Cvt:
					g.copyC(g.regVar(name, in.Dst), g.regVar(name, in.A))
				case *ir.FrameAddr:
					g.addrOf(g.regVar(name, in.Dst), g.slotObj(name, in.Off))
				case *ir.GlobalAddr:
					g.addrOf(g.regVar(name, in.Dst), g.globalObj(in.Name))
				case *ir.StrAddr:
					g.addrOf(g.regVar(name, in.Dst), g.objs[g.strObj])
				case *ir.Load:
					rawLoads = append(rawLoads, memC{g.regVar(name, in.Dst), g.regVar(name, in.Addr)})
				case *ir.Store:
					rawStores = append(rawStores, memC{g.regVar(name, in.Addr), g.regVar(name, in.Src)})
				case *ir.Malloc:
					if _, ok := g.siteObj[in]; !ok {
						o := g.newObject(ObjHeap, in.Site)
						o.Site = in
						o.Fn = name
						g.siteObj[in] = o.ID
					}
					g.addrOf(g.regVar(name, in.Dst), g.objs[g.siteObj[in]])
				case *ir.Free:
					g.freeVar[in] = g.regVar(name, in.Ptr)
				case *ir.Call:
					callee, ok := prog.Funcs[in.Callee]
					if !ok {
						return nil, fmt.Errorf("pta2: unknown callee %s", in.Callee)
					}
					for i, a := range in.Args {
						if i < len(callee.Params) {
							g.copyC(g.paramVar(in.Callee, i), g.regVar(name, a))
						}
					}
					if in.Dst != ir.None {
						g.copyC(g.regVar(name, in.Dst), g.retVar(in.Callee))
					}
				case *ir.Intrinsic:
					// Builtins neither retain nor return heap pointers.
				case *ir.Ret:
					if in.Val != ir.None {
						g.copyC(g.retVar(name), g.regVar(name, in.Val))
					}
				case *ir.Const, *ir.Br, *ir.CondBr:
					// No pointer flow.
				case *ir.PoolAlloc, *ir.PoolFree:
					return nil, fmt.Errorf("pta2: program already pool-allocated")
				}
			}
		}
	}

	// Allocate solver state now that variable and object counts are known.
	g.parent = make([]int, g.nvar)
	for i := range g.parent {
		g.parent[i] = i
	}
	g.pts = make([]dfa.BitSet, g.nvar)
	for i := range g.pts {
		g.pts[i] = dfa.NewBitSet(len(g.objs))
	}
	g.succ = make([]map[int]bool, g.nvar)
	g.loads = make([][]int, g.nvar)
	g.stores = make([][]int, g.nvar)
	for _, c := range rawLoads {
		g.loads[c.b] = append(g.loads[c.b], c.a)
	}
	for _, c := range rawStores {
		g.stores[c.a] = append(g.stores[c.a], c.b)
	}

	g.solve()
	return g, nil
}

// find returns the representative of a (possibly collapsed) variable.
func (g *Graph) find(v int) int {
	for g.parent[v] != v {
		g.parent[v] = g.parent[g.parent[v]]
		v = g.parent[v]
	}
	return v
}

// merge collapses b into a (callers ensure a < b so the smallest ID is the
// deterministic representative), folding b's points-to set and constraints
// into a.
func (g *Graph) merge(a, b int) {
	g.parent[b] = a
	g.pts[a].Or(g.pts[b])
	g.pts[b] = nil
	for d := range g.succ[b] {
		g.addSucc(a, d)
	}
	g.succ[b] = nil
	g.loads[a] = append(g.loads[a], g.loads[b]...)
	g.loads[b] = nil
	g.stores[a] = append(g.stores[a], g.stores[b]...)
	g.stores[b] = nil
}

func (g *Graph) addSucc(src, dst int) bool {
	src, dst = g.find(src), g.find(dst)
	if src == dst {
		return false
	}
	if g.succ[src] == nil {
		g.succ[src] = make(map[int]bool)
	}
	if g.succ[src][dst] {
		return false
	}
	g.succ[src][dst] = true
	return true
}

// solve runs the worklist fixpoint with cycle collapsing between rounds.
func (g *Graph) solve() {
	for _, c := range g.copies {
		g.addSucc(c[0], c[1])
	}
	inWL := make([]bool, g.nvar)
	var wl []int
	push := func(v int) {
		v = g.find(v)
		if !inWL[v] {
			inWL[v] = true
			wl = append(wl, v)
		}
	}
	for _, b := range g.bases {
		v := g.find(b.v)
		g.pts[v].Set(b.obj)
		push(v)
	}

	for {
		for len(wl) > 0 {
			v := wl[len(wl)-1]
			wl = wl[:len(wl)-1]
			inWL[v] = false
			v = g.find(v)

			// Complex constraints: materialize copy edges from the
			// current points-to set of v. New edges feed the source
			// back onto the worklist so its set propagates.
			for _, oi := range g.pts[v].Elems() {
				c := g.find(g.objs[oi].contents)
				for _, d := range g.loads[v] {
					if g.addSucc(c, d) {
						push(c)
					}
				}
				for _, s := range g.stores[v] {
					if g.addSucc(s, c) {
						push(s)
					}
				}
			}
			// Copy edges: propagate v's set to successors.
			for d := range g.succ[v] {
				d = g.find(d)
				if d == v {
					continue
				}
				if g.pts[d].OrChanged(g.pts[v]) {
					push(d)
				}
			}
		}
		// Collapse copy-edge cycles; if anything merged, re-propagate.
		if !g.collapseCycles(push) {
			break
		}
	}
}

// collapseCycles finds strongly connected components of the copy-edge graph
// (Tarjan) and collapses every non-trivial component onto its smallest
// member. Returns whether any collapse happened.
func (g *Graph) collapseCycles(push func(int)) bool {
	index := make(map[int]int)
	low := make(map[int]int)
	onStack := make(map[int]bool)
	var stack []int
	next := 0
	collapsed := false

	var strongconnect func(v int)
	strongconnect = func(v int) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for w := range g.succ[v] {
			w = g.find(w)
			if w == v {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []int
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sort.Ints(comp)
				rep := comp[0]
				for _, w := range comp[1:] {
					g.merge(rep, w)
				}
				// Drop any self-edge the collapse produced.
				delete(g.succ[rep], rep)
				for d := range g.succ[rep] {
					if g.find(d) == rep {
						delete(g.succ[rep], d)
					}
				}
				collapsed = true
				push(rep)
			}
		}
	}
	for v := 0; v < g.nvar; v++ {
		if g.find(v) != v {
			continue
		}
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return collapsed
}

// pointsTo resolves a variable's points-to set as objects sorted by ID.
func (g *Graph) pointsTo(v int) []*Object {
	set := g.pts[g.find(v)]
	var out []*Object
	for _, oi := range set.Elems() {
		out = append(out, g.objs[oi])
	}
	return out
}

// RegPointsTo returns the objects register r of function fn may point to
// (empty when the register was never seen or holds no pointers).
func (g *Graph) RegPointsTo(fn string, r ir.Reg) []*Object {
	v, ok := g.regs[regKey{fn, r}]
	if !ok {
		return nil
	}
	return g.pointsTo(v)
}

// SlotPointsTo returns the objects the frame slot at offset off in fn may
// point to.
func (g *Graph) SlotPointsTo(fn string, off uint64) []*Object {
	i, ok := g.slots[slotKey{fn, off}]
	if !ok {
		return nil
	}
	return g.pointsTo(g.objs[i].contents)
}

// GlobalPointsTo returns the objects a global variable's value may point to.
func (g *Graph) GlobalPointsTo(name string) []*Object {
	i, ok := g.globals[name]
	if !ok {
		return nil
	}
	return g.pointsTo(g.objs[i].contents)
}

// ContentsPointsTo returns the objects reachable through one dereference of
// an object (what its stored values may point to).
func (g *Graph) ContentsPointsTo(o *Object) []*Object {
	return g.pointsTo(o.contents)
}

// FreePointsTo returns the objects a free instruction's operand may point to
// (the candidate objects the free releases).
func (g *Graph) FreePointsTo(f *ir.Free) []*Object {
	v, ok := g.freeVar[f]
	if !ok {
		return nil
	}
	return g.pointsTo(v)
}

// SiteObj returns the abstract object of a malloc site (nil if the
// instruction was not part of the analyzed program).
func (g *Graph) SiteObj(m *ir.Malloc) *Object {
	i, ok := g.siteObj[m]
	if !ok {
		return nil
	}
	return g.objs[i]
}

// HeapObjects returns every heap allocation site object, ordered by ID.
func (g *Graph) HeapObjects() []*Object {
	var out []*Object
	for _, o := range g.objs {
		if o.Kind == ObjHeap {
			out = append(out, o)
		}
	}
	return out
}

// Objects returns every abstract object, ordered by ID.
func (g *Graph) Objects() []*Object {
	return g.objs
}

// RegKeys enumerates every (function, register) pair the analysis saw, in
// deterministic order — the differential fuzz harness walks these to check
// these sets against the pta classes.
func (g *Graph) RegKeys() []struct {
	Fn  string
	Reg ir.Reg
} {
	out := make([]struct {
		Fn  string
		Reg ir.Reg
	}, 0, len(g.regs))
	for k := range g.regs {
		out = append(out, struct {
			Fn  string
			Reg ir.Reg
		}{k.fn, k.reg})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Reg < out[j].Reg
	})
	return out
}

// GlobalNames enumerates the global variables the analysis saw, sorted.
func (g *Graph) GlobalNames() []string {
	out := make([]string, 0, len(g.globals))
	for name := range g.globals {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
