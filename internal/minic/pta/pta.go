// Package pta implements a whole-program, flow- and context-insensitive,
// field-insensitive unification-based points-to analysis over mini-C IR —
// Steensgaard's algorithm, the style of analysis underlying the points-to
// graphs Automatic Pool Allocation consumes (the paper's §2.2; the original
// APA uses DSA, which is also unification-based).
//
// Every abstract memory object is a Node: registers, stack slots, globals,
// parameter/return values, and — the ones the transformation cares about —
// heap nodes created at malloc sites. Assignments unify pointees, so the
// final graph maps every pointer-valued location to the equivalence class of
// objects it may reference.
package pta

import (
	"fmt"
	"sort"

	"repro/internal/minic/ir"
)

// Node is one abstract memory object (an equivalence class after
// unification; always access via Find).
type Node struct {
	parent *Node
	rank   int

	// pts is the single Steensgaard pointee.
	pts *Node

	// ID orders nodes deterministically (creation order).
	ID int
	// Heap is set when the class contains at least one malloc site.
	Heap bool
	// GlobalVar is set when the class contains a global variable's
	// storage.
	GlobalVar bool
	// Sites are the malloc instructions allocating into this class.
	Sites []*ir.Malloc
	// SiteLabels are "func:line" strings for diagnostics.
	SiteLabels []string
	// ElemSizes collects constant allocation sizes seen at the sites
	// (pool element-size hints).
	ElemSizes []uint64
}

// Find returns the class representative.
func (n *Node) Find() *Node {
	for n.parent != n {
		n.parent = n.parent.parent
		n = n.parent
	}
	return n
}

// PointsTo returns the class this node's values may point to (nil if it
// holds no pointers).
func (n *Node) PointsTo() *Node {
	r := n.Find()
	if r.pts == nil {
		return nil
	}
	return r.pts.Find()
}

// Reachable returns every class reachable from n through pointee edges,
// excluding n itself unless it is in a cycle.
func (n *Node) Reachable() []*Node {
	seen := make(map[*Node]bool)
	var out []*Node
	cur := n.Find().PointsTo()
	for cur != nil && !seen[cur] {
		seen[cur] = true
		out = append(out, cur)
		cur = cur.PointsTo()
	}
	return out
}

// Graph is the analysis result.
type Graph struct {
	nodes  []*Node
	nextID int

	regs   map[regKey]*Node
	slots  map[slotKey]*Node
	global map[string]*Node
	params map[paramKey]*Node
	rets   map[string]*Node
	strs   *Node

	// siteNode maps each malloc instruction to its class.
	siteNode map[*ir.Malloc]*Node
	// freeNode maps each free instruction to the class its operand
	// points into (nil if unknown).
	freeNode map[*ir.Free]*Node
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

func (g *Graph) newNode() *Node {
	n := &Node{ID: g.nextID}
	n.parent = n
	g.nextID++
	g.nodes = append(g.nodes, n)
	return n
}

// union merges two classes, recursively merging pointees (the Steensgaard
// join).
func (g *Graph) union(a, b *Node) *Node {
	a, b = a.Find(), b.Find()
	if a == b {
		return a
	}
	if a.rank < b.rank {
		a, b = b, a
	}
	if a.rank == b.rank {
		a.rank++
	}
	b.parent = a
	// Merge class attributes.
	a.Heap = a.Heap || b.Heap
	a.GlobalVar = a.GlobalVar || b.GlobalVar
	a.Sites = append(a.Sites, b.Sites...)
	a.SiteLabels = mergeLabels(a.SiteLabels, b.SiteLabels)
	a.ElemSizes = append(a.ElemSizes, b.ElemSizes...)
	if a.ID > b.ID {
		a.ID = b.ID // keep the smallest id as the class id for determinism
	}
	pa, pb := a.pts, b.pts
	switch {
	case pa == nil:
		a.pts = pb
	case pb == nil:
		// keep pa
	default:
		merged := g.union(pa, pb)
		a.pts = merged
	}
	return a
}

// mergeLabels combines two site-label lists, deduplicating and sorting so
// unioned classes never accumulate duplicate "func:line" entries and every
// diagnostic that prints them is deterministic.
func mergeLabels(a, b []string) []string {
	if len(b) == 0 && isSortedUnique(a) {
		return a
	}
	seen := make(map[string]bool, len(a)+len(b))
	out := make([]string, 0, len(a)+len(b))
	for _, lists := range [2][]string{a, b} {
		for _, l := range lists {
			if !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	sort.Strings(out)
	return out
}

func isSortedUnique(a []string) bool {
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			return false
		}
	}
	return true
}

// pointee returns (creating on demand) the class n points to.
func (g *Graph) pointee(n *Node) *Node {
	n = n.Find()
	if n.pts == nil {
		n.pts = g.newNode()
	}
	return n.pts.Find()
}

// assign models "dst = src" for values: their pointees unify.
func (g *Graph) assign(dst, src *Node) {
	g.union(g.pointee(dst), g.pointee(src))
}

// addressOf models "dst = &obj".
func (g *Graph) addressOf(dst, obj *Node) {
	g.union(g.pointee(dst), obj)
}

func (g *Graph) regNode(fn string, r ir.Reg) *Node {
	k := regKey{fn, r}
	if n, ok := g.regs[k]; ok {
		return n
	}
	n := g.newNode()
	g.regs[k] = n
	return n
}

func (g *Graph) slotNode(fn string, off uint64) *Node {
	k := slotKey{fn, off}
	if n, ok := g.slots[k]; ok {
		return n
	}
	n := g.newNode()
	g.slots[k] = n
	return n
}

// globalNode returns the storage node of a global variable.
func (g *Graph) globalNode(name string) *Node {
	if n, ok := g.global[name]; ok {
		return n
	}
	n := g.newNode()
	n.GlobalVar = true
	g.global[name] = n
	return n
}

// ParamNode returns the abstract incoming value of parameter i of fn.
func (g *Graph) ParamNode(fn string, i int) *Node {
	k := paramKey{fn, i}
	if n, ok := g.params[k]; ok {
		return n
	}
	n := g.newNode()
	g.params[k] = n
	return n
}

// RetNode returns the abstract return value of fn.
func (g *Graph) RetNode(fn string) *Node {
	if n, ok := g.rets[fn]; ok {
		return n
	}
	n := g.newNode()
	g.rets[fn] = n
	return n
}

// SiteNode returns the heap class allocated by a malloc instruction.
func (g *Graph) SiteNode(m *ir.Malloc) *Node {
	if n, ok := g.siteNode[m]; ok {
		return n.Find()
	}
	return nil
}

// FreeNode returns the heap class freed by a free instruction (nil when the
// analysis saw no allocation flowing there).
func (g *Graph) FreeNode(f *ir.Free) *Node {
	if n, ok := g.freeNode[f]; ok {
		return n.Find()
	}
	return nil
}

// RegPointsTo returns the class the values of register r in function fn may
// point to, or nil when the register holds no pointers (or was never seen).
func (g *Graph) RegPointsTo(fn string, r ir.Reg) *Node {
	n, ok := g.regs[regKey{fn, r}]
	if !ok {
		return nil
	}
	return n.PointsTo()
}

// HeapNodes returns the distinct heap classes, ordered by ID.
func (g *Graph) HeapNodes() []*Node {
	seen := make(map[*Node]bool)
	var out []*Node
	for _, n := range g.nodes {
		r := n.Find()
		if r.Heap && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// GlobalRoots returns the global-variable storage classes, deduplicated.
func (g *Graph) GlobalRoots() []*Node {
	seen := make(map[*Node]bool)
	var out []*Node
	for _, n := range g.global {
		r := n.Find()
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Analyze runs the analysis over a program.
func Analyze(prog *ir.Program) (*Graph, error) {
	g := &Graph{
		regs:     make(map[regKey]*Node),
		slots:    make(map[slotKey]*Node),
		global:   make(map[string]*Node),
		params:   make(map[paramKey]*Node),
		rets:     make(map[string]*Node),
		siteNode: make(map[*ir.Malloc]*Node),
		freeNode: make(map[*ir.Free]*Node),
	}
	g.strs = g.newNode()

	// Deterministic function order.
	names := make([]string, 0, len(prog.Funcs))
	for name := range prog.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		fn := prog.Funcs[name]
		if err := g.scanFunc(prog, fn); err != nil {
			return nil, err
		}
	}

	// Resolve free sites after all unification has settled.
	for f, n := range g.freeNode {
		g.freeNode[f] = n.Find()
	}
	return g, nil
}

// constSizes scans a function once, recording the last Const value per
// register per block for element-size hints (a tiny peephole, not a real
// dataflow — hints only).
func constSizes(fn *ir.Func) map[*ir.Malloc]uint64 {
	out := make(map[*ir.Malloc]uint64)
	for _, b := range fn.Blocks {
		consts := make(map[ir.Reg]uint64)
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case *ir.Const:
				consts[in.Dst] = in.Val
			case *ir.Malloc:
				if v, ok := consts[in.Size]; ok {
					out[in] = v
				}
			}
		}
	}
	return out
}

func (g *Graph) scanFunc(prog *ir.Program, fn *ir.Func) error {
	name := fn.Name
	sizes := constSizes(fn)

	// Incoming parameter values flow into their frame slots.
	for i, p := range fn.Params {
		slot := g.slotNode(name, p.Offset)
		g.union(g.pointee(slot), g.pointee(g.ParamNode(name, i)))
	}

	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case *ir.Copy:
				g.assign(g.regNode(name, in.Dst), g.regNode(name, in.Src))
			case *ir.Bin:
				// Pointer arithmetic and comparisons: the result
				// may alias either operand's pointee.
				g.assign(g.regNode(name, in.Dst), g.regNode(name, in.A))
				g.assign(g.regNode(name, in.Dst), g.regNode(name, in.B))
			case *ir.Un:
				g.assign(g.regNode(name, in.Dst), g.regNode(name, in.A))
			case *ir.Cvt:
				g.assign(g.regNode(name, in.Dst), g.regNode(name, in.A))
			case *ir.FrameAddr:
				g.addressOf(g.regNode(name, in.Dst), g.slotNode(name, in.Off))
			case *ir.GlobalAddr:
				g.addressOf(g.regNode(name, in.Dst), g.globalNode(in.Name))
			case *ir.StrAddr:
				g.addressOf(g.regNode(name, in.Dst), g.strs)
			case *ir.Load:
				// dst = *addr
				addr := g.regNode(name, in.Addr)
				obj := g.pointee(addr)
				g.union(g.pointee(g.regNode(name, in.Dst)), g.pointee(obj))
			case *ir.Store:
				// *addr = src
				addr := g.regNode(name, in.Addr)
				obj := g.pointee(addr)
				g.union(g.pointee(obj), g.pointee(g.regNode(name, in.Src)))
			case *ir.Malloc:
				h, ok := g.siteNode[in]
				if !ok {
					h = g.newNode()
					h.Heap = true
					h.Sites = []*ir.Malloc{in}
					h.SiteLabels = []string{in.Site}
					if sz, has := sizes[in]; has {
						h.ElemSizes = []uint64{sz}
					}
					g.siteNode[in] = h
				}
				g.addressOf(g.regNode(name, in.Dst), h)
			case *ir.Free:
				ptr := g.regNode(name, in.Ptr)
				g.freeNode[in] = g.pointee(ptr)
			case *ir.Call:
				callee, ok := prog.Funcs[in.Callee]
				if !ok {
					return fmt.Errorf("pta: unknown callee %s", in.Callee)
				}
				for i, a := range in.Args {
					if i < len(callee.Params) {
						g.assign(g.ParamNode(in.Callee, i), g.regNode(name, a))
					}
				}
				if in.Dst != ir.None {
					g.assign(g.regNode(name, in.Dst), g.RetNode(in.Callee))
				}
			case *ir.Intrinsic:
				// Builtins neither retain nor return heap
				// pointers.
			case *ir.Ret:
				if in.Val != ir.None {
					g.assign(g.RetNode(name), g.regNode(name, in.Val))
				}
			case *ir.Const, *ir.Br, *ir.CondBr:
				// No pointer flow.
			case *ir.PoolAlloc, *ir.PoolFree:
				return fmt.Errorf("pta: program already pool-allocated")
			}
		}
	}
	return nil
}
