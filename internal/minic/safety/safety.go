// Package safety implements the static dangling-pointer analysis that sits
// between the compiler front end and the shadow-page runtime: a
// flow-sensitive, site-granular analysis over the inclusion-based points-to
// sets of internal/minic/pta2, solved on the CFG/dataflow infrastructure in
// internal/minic/dfa.
//
// Every dereference and free is classified into one of three tiers:
//
//   - DEFINITE-UAF: the pointer being dereferenced (or freed) is tracked at
//     the granularity of the frame slot or global it was loaded from, and on
//     every intraprocedural path that storage location certainly holds a
//     freed pointer — it was directly freed, or its value was handed to a
//     callee that (transitively) may free an allocation site the value
//     points into. A `free(p); use(p)` lands here, while freeing a
//     *different* object does not.
//   - POSSIBLE-UAF: some allocation site the pointer may reference may
//     already be freed when the use runs (on some path, in some caller, or
//     in a loop). Every such finding carries a *witness*: the
//     interprocedural chain from a freeing statement to the use (free →
//     call sites, innermost first → use), reconstructed from shortest
//     derivations of the dataflow facts (witness.go).
//   - PROVEN-SAFE: no allocation site the pointer may reference can have
//     been freed when the use runs. This is the *sound* tier: a
//     PROVEN-SAFE use can never touch freed memory.
//
// Facts are allocation *sites*: a free only poisons the sites its operand's
// points-to set contains, so unrelated allocations keep independent
// verdicts. The interprocedural boundary is a computed fixpoint: each
// function f gets entryMay[f] — the sites that may already be freed at some
// call to f — propagated over the call graph from main (entryMay[main] = ∅)
// using per-callsite may-freed facts, alongside exitSumm[f], the sites f (or
// its callees) may free, applied at call instructions.
//
// The soundness argument: PROVEN-SAFE means no candidate site of the use can
// have been freed when the use executes, under a points-to set that
// over-approximates the concrete pointer (every set lies inside the
// unification class internal/minic/pta computes for the same register,
// which the driver's differential fuzz checks), an exitSumm that
// over-approximates callee behavior, and an entryMay that over-approximates
// every calling context reachable from main.
//
// On top of the per-use verdicts the pass computes *elidable* malloc sites:
// an allocation may skip shadow-page protection entirely (the canonical
// pointer is returned to the program) when its site is absent from every
// reachable free's points-to set — such objects are released only when
// their pool is destroyed, and Automatic Pool Allocation's escape-driven
// pool placement already guarantees no pointer into a pool outlives the
// pool. As a belt-and-braces condition every use of the site inside its
// allocating function must also be dominated by an allocation the use may
// reference. The runtime double-checks the proof with an elision-miss
// counter: a free that ever targets an elided object would be the analysis
// being wrong, and is counted, not hidden.
package safety

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/minic/dfa"
	"repro/internal/minic/ir"
)

// Verdict is the classification tier of one use.
type Verdict int

// Verdicts, ordered from best to worst.
const (
	ProvenSafe Verdict = iota + 1
	PossibleUAF
	DefiniteUAF
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case ProvenSafe:
		return "PROVEN-SAFE"
	case PossibleUAF:
		return "POSSIBLE-UAF"
	case DefiniteUAF:
		return "DEFINITE-UAF"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// UseKind says what operation the finding is about. UseFree covers double
// frees ("use of a pointer is a read, write or free operation", §2.1).
type UseKind int

// Use kinds, in report order.
const (
	UseRead UseKind = iota + 1
	UseWrite
	UseFree
)

// String implements fmt.Stringer.
func (k UseKind) String() string {
	switch k {
	case UseRead:
		return "read"
	case UseWrite:
		return "write"
	case UseFree:
		return "free"
	default:
		return fmt.Sprintf("use(%d)", int(k))
	}
}

// WitnessStep is one hop of an interprocedural witness path.
type WitnessStep struct {
	// Site is the "func:line" label of the step's statement.
	Site string
	// Role is "free" (the originating freeing statement), "call" (a call
	// edge the freed state propagates through, innermost first), or "use"
	// (the classified use itself, always last).
	Role string
}

// Finding is one classified use of a set of allocation sites.
type Finding struct {
	// Func and Line locate the use; Site is the "func:line" label.
	Func string
	Line int
	Site string
	Kind UseKind
	// Verdict is the classification tier.
	Verdict Verdict
	// ClassID identifies the primary allocation-site object
	// (pta2.Object.ID): the first candidate site that may already be freed
	// at the use, else the first candidate site.
	ClassID int
	// AllocSites and FreeSites are the allocation and free provenance,
	// deduplicated and sorted.
	AllocSites []string
	FreeSites  []string
	// Witness, on non-PROVEN findings, is the interprocedural path from a
	// freeing statement to the use.
	Witness []WitnessStep
}

// ClassInfo summarizes one allocation site.
type ClassInfo struct {
	ID         int
	AllocSites []string
	FreeSites  []string
	// GlobalEscape reports reachability from globals (diagnostic only).
	GlobalEscape bool
	// Elidable is the proof that protection can be skipped for the site.
	Elidable bool
	// ElideBlocked says why not, when Elidable is false.
	ElideBlocked string
}

// Report is the analysis result for one program.
type Report struct {
	// Findings are every classified use, sorted by (func, line, verdict,
	// kind, class) so output is deterministic across runs.
	Findings []Finding
	// Classes are the reachable allocation sites, ordered by ID.
	Classes []ClassInfo

	// elidableMallocs are the reachable malloc instructions of proven
	// elidable allocations, in deterministic order.
	elidableMallocs []*ir.Malloc
}

// callGraph computes the deterministic per-function callee lists and the
// set of functions reachable from main (every function when there is no
// main, so library fragments still lint).
func callGraph(prog *ir.Program) (order []string, reach map[string]bool, callees map[string][]string) {
	reach = make(map[string]bool)
	callees = make(map[string][]string)
	for name, fn := range prog.Funcs {
		seen := make(map[string]bool)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if c, ok := in.(*ir.Call); ok && !seen[c.Callee] {
					seen[c.Callee] = true
					callees[name] = append(callees[name], c.Callee)
				}
			}
		}
		sort.Strings(callees[name])
	}
	if _, ok := prog.Funcs["main"]; ok {
		var dfs func(string)
		dfs = func(f string) {
			if reach[f] {
				return
			}
			reach[f] = true
			for _, c := range callees[f] {
				if _, exists := prog.Funcs[c]; exists {
					dfs(c)
				}
			}
		}
		dfs("main")
	} else {
		for name := range prog.Funcs {
			reach[name] = true
		}
	}
	for name := range prog.Funcs {
		if reach[name] {
			order = append(order, name)
		}
	}
	sort.Strings(order)
	return order, reach, callees
}

// loc is one pointer storage location the definite analysis tracks: a frame
// slot of the current function (global == "") or a program global.
type loc struct {
	global string
	off    uint64
}

// addrTakenSlots returns the frame-slot offsets that are "address-taken" in
// fn: a register holding the slot's address is used anywhere other than
// directly as a load/store address — passed to a call, stored, returned, or
// fed into arithmetic. Such slots can be rewritten behind the analysis's
// back, so they are callee-writable and unknown stores may hit them.
// frameRegs maps registers to the slot offset whose address they hold.
func addrTakenSlots(fn *ir.Func, frameRegs map[ir.Reg]uint64) map[uint64]bool {
	addrTaken := make(map[uint64]bool)
	taken := func(r ir.Reg) {
		if off, ok := frameRegs[r]; ok {
			addrTaken[off] = true
		}
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case *ir.Bin:
				taken(in.A)
				taken(in.B)
			case *ir.Un:
				taken(in.A)
			case *ir.Cvt:
				taken(in.A)
			case *ir.Copy:
				taken(in.Src)
			case *ir.Store:
				taken(in.Src)
			case *ir.Call:
				for _, r := range in.Args {
					taken(r)
				}
			case *ir.Intrinsic:
				for _, r := range in.Args {
					taken(r)
				}
			case *ir.Free:
				taken(in.Ptr)
			case *ir.Malloc:
				taken(in.Size)
			case *ir.Ret:
				if in.Val != ir.None {
					taken(in.Val)
				}
			case *ir.CondBr:
				taken(in.Cond)
			}
		}
	}
	return addrTaken
}

// symState is the abstract machine state the definite analysis executes
// blocks under: the dataflow facts (dang) plus intra-block register
// knowledge, reset at block entry.
type symState struct {
	// dang[l] means location l certainly holds a dangling pointer.
	dang dfa.BitSet
	// dangReg marks registers holding certainly-dangling pointer values
	// (or values read through them — garbage is garbage).
	dangReg map[ir.Reg]bool
	// addrOf maps a register to the location whose address it holds.
	addrOf map[ir.Reg]int
	// srcLoc maps a register to the location its value was loaded from
	// (and which still holds that value).
	srcLoc map[ir.Reg]int
}

// newSymState starts a block's execution from the dangling facts dang.
func newSymState(dang dfa.BitSet) *symState {
	return &symState{
		dang:    dang,
		dangReg: make(map[ir.Reg]bool),
		addrOf:  make(map[ir.Reg]int),
		srcLoc:  make(map[ir.Reg]int),
	}
}

func (st *symState) clearReg(r ir.Reg) {
	delete(st.dangReg, r)
	delete(st.addrOf, r)
	delete(st.srcLoc, r)
}

// dropSrcLoc forgets that any register's value came from location l (after
// l is overwritten, freeing such a register no longer dangles l).
func (st *symState) dropSrcLoc(l int) {
	for r, sl := range st.srcLoc {
		if sl == l {
			delete(st.srcLoc, r)
		}
	}
}

// dstOf returns the destination register of a Const or StrAddr.
func dstOf(in ir.Instr) ir.Reg {
	switch in := in.(type) {
	case *ir.Const:
		return in.Dst
	case *ir.StrAddr:
		return in.Dst
	}
	return ir.None
}

// domInfo caches per-function dominator trees and instruction positions.
type domInfo struct {
	cfg *dfa.CFG
	dom *dfa.DomTree
	// pos[instr] = (block, index) for every instruction.
	pos map[ir.Instr][2]int
}

func domFor(prog *ir.Program, fname string, cache map[string]*domInfo) *domInfo {
	if d, ok := cache[fname]; ok {
		return d
	}
	fn := prog.Funcs[fname]
	cfg, err := dfa.BuildCFG(fn)
	if err != nil {
		cache[fname] = nil
		return nil
	}
	d := &domInfo{cfg: cfg, dom: cfg.Dominators(), pos: make(map[ir.Instr][2]int)}
	for bi, b := range fn.Blocks {
		for ii, in := range b.Instrs {
			d.pos[in] = [2]int{bi, ii}
		}
	}
	cache[fname] = d
	return d
}

// dominatedByAny reports whether instruction (bu, iu) is dominated by at
// least one of the malloc instructions.
func dominatedByAny(d *domInfo, ms []*ir.Malloc, bu, iu int) bool {
	for _, m := range ms {
		p, ok := d.pos[m]
		if !ok {
			continue
		}
		bm, im := p[0], p[1]
		if bm == bu {
			if im < iu {
				return true
			}
			continue
		}
		if d.dom.Dominates(bm, bu) {
			return true
		}
	}
	return false
}

// MarkElidable sets the Elidable flag on every reachable malloc instruction
// of a proven site, returning how many sites were marked. Call it before
// poolalloc.Transform so the flag survives the PoolAlloc rewrite.
func (r *Report) MarkElidable() int {
	marked := 0
	for _, m := range r.elidableMallocs {
		if !m.Elidable {
			m.Elidable = true
			marked++
		}
	}
	return marked
}

// ElidableSites returns the malloc site labels proven elidable, sorted.
func (r *Report) ElidableSites() []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range r.elidableMallocs {
		if !seen[m.Site] {
			seen[m.Site] = true
			out = append(out, m.Site)
		}
	}
	sort.Strings(out)
	return out
}

// Stats are the aggregate counts consumers (the pglint CLI, the obs metrics
// gauges) publish about a report.
type Stats struct {
	// Definite, Possible, and Proven count classified uses per verdict.
	Definite, Possible, Proven int
	// Classes counts allocation sites; Elidable counts those proven safe
	// to leave unprotected.
	Classes, Elidable int
}

// Stats summarizes the report.
func (r *Report) Stats() Stats {
	s := Stats{Classes: len(r.Classes)}
	for _, f := range r.Findings {
		switch f.Verdict {
		case DefiniteUAF:
			s.Definite++
		case PossibleUAF:
			s.Possible++
		case ProvenSafe:
			s.Proven++
		}
	}
	for _, c := range r.Classes {
		if c.Elidable {
			s.Elidable++
		}
	}
	return s
}

// ByVerdict returns the findings with the given verdict, in report order.
func (r *Report) ByVerdict(v Verdict) []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Verdict == v {
			out = append(out, f)
		}
	}
	return out
}

// sortFindings orders findings by (file/func, line, verdict, kind, class):
// the deterministic diagnostic order every consumer relies on. Verdict
// outranks kind so findings sharing a line group by severity tier instead of
// by whichever operation happened to come first.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Verdict != b.Verdict {
			return a.Verdict < b.Verdict
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.ClassID < b.ClassID
	})
}

func sortedSites(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// funcOfSite and lineOfSite split a "func:line" site label.
func funcOfSite(site string) string {
	if i := strings.LastIndex(site, ":"); i >= 0 {
		return site[:i]
	}
	return site
}

func lineOfSite(site string) int {
	if i := strings.LastIndex(site, ":"); i >= 0 {
		if n, err := strconv.Atoi(site[i+1:]); err == nil {
			return n
		}
	}
	return 0
}
