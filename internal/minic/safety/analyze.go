package safety

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/minic/dfa"
	"repro/internal/minic/ir"
	"repro/internal/minic/pta2"
)

// Analyze runs the full static analysis over a pre-APA program (plain
// Malloc/Free instructions; run it before poolalloc.Transform). The report's
// Classes describe individual allocation sites, and non-PROVEN findings
// carry witness paths.
func Analyze(prog *ir.Program) (*Report, error) {
	g, err := pta2.Analyze(prog)
	if err != nil {
		return nil, fmt.Errorf("safety: %w", err)
	}
	a := &analysis{
		prog:    prog,
		g:       g,
		sidx:    make(map[int]int),
		siteOf:  make(map[*ir.Malloc]int),
		regPts:  make(map[regKey]dfa.BitSet),
		freePts: make(map[*ir.Free]dfa.BitSet),
		finfo:   make(map[string]*funcInfo),
		derivs:  make(map[int]*siteDeriv),
	}
	a.order, a.reach, a.callees = callGraph(prog)
	if err := a.collectSites(); err != nil {
		return nil, err
	}
	a.computeExitSummaries()
	if err := a.computeEntryMay(); err != nil {
		return nil, err
	}

	rep := &Report{}
	for _, fname := range a.order {
		if err := a.analyzeFunc(fname, rep); err != nil {
			return nil, err
		}
	}
	a.computeElision(rep)
	sortFindings(rep.Findings)
	return rep, nil
}

// analysis carries the per-program state.
type analysis struct {
	prog *ir.Program
	g    *pta2.Graph

	order   []string
	reach   map[string]bool
	callees map[string][]string

	// sites is the dense fact universe: reachable allocation sites,
	// ordered by object ID. sidx maps pta2 object IDs to dense indexes.
	sites  []*pta2.Object
	sidx   map[int]int
	siteOf map[*ir.Malloc]int
	// mallocsIn lists each reachable function's malloc instructions.
	mallocsIn map[string][]*ir.Malloc

	// freeLabels[s] are the labels of reachable frees that may free site
	// s.
	freeLabels []map[string]bool

	regPts  map[regKey]dfa.BitSet
	freePts map[*ir.Free]dfa.BitSet

	// exitSumm[f]: sites possibly freed during a call to f (transitively).
	// entryMay[f]: sites possibly already freed when f is entered, in some
	// reachable calling context.
	exitSumm map[string]dfa.BitSet
	entryMay map[string]dfa.BitSet

	finfo  map[string]*funcInfo
	derivs map[int]*siteDeriv
}

type regKey struct {
	fn  string
	reg ir.Reg
}

// collectSites enumerates reachable allocation sites and free provenance.
func (a *analysis) collectSites() error {
	a.mallocsIn = make(map[string][]*ir.Malloc)
	for _, fname := range a.order {
		fn := a.prog.Funcs[fname]
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch in := in.(type) {
				case *ir.Malloc:
					o := a.g.SiteObj(in)
					if o == nil {
						continue
					}
					if _, ok := a.sidx[o.ID]; !ok {
						a.sidx[o.ID] = -1
						a.sites = append(a.sites, o)
					}
					a.mallocsIn[fname] = append(a.mallocsIn[fname], in)
				case *ir.PoolAlloc, *ir.PoolFree:
					return fmt.Errorf("safety: program already pool-allocated; analyze before the APA transformation")
				}
			}
		}
	}
	sort.Slice(a.sites, func(i, j int) bool { return a.sites[i].ID < a.sites[j].ID })
	for i, o := range a.sites {
		a.sidx[o.ID] = i
		a.siteOf[o.Site] = i
	}
	a.freeLabels = make([]map[string]bool, len(a.sites))
	for _, fname := range a.order {
		for _, b := range a.prog.Funcs[fname].Blocks {
			for _, in := range b.Instrs {
				if f, ok := in.(*ir.Free); ok {
					for _, s := range a.freeBits(f).Elems() {
						if a.freeLabels[s] == nil {
							a.freeLabels[s] = make(map[string]bool)
						}
						a.freeLabels[s][f.Site] = true
					}
				}
			}
		}
	}
	return nil
}

// siteBits maps a points-to set to the dense bitset of reachable heap sites
// it contains.
func (a *analysis) siteBits(objs []*pta2.Object) dfa.BitSet {
	bits := dfa.NewBitSet(len(a.sites))
	for _, o := range objs {
		if o.Kind != pta2.ObjHeap {
			continue
		}
		if i, ok := a.sidx[o.ID]; ok && i >= 0 {
			bits.Set(i)
		}
	}
	return bits
}

func (a *analysis) regBits(fn string, r ir.Reg) dfa.BitSet {
	k := regKey{fn, r}
	if b, ok := a.regPts[k]; ok {
		return b
	}
	b := a.siteBits(a.g.RegPointsTo(fn, r))
	a.regPts[k] = b
	return b
}

func (a *analysis) freeBits(f *ir.Free) dfa.BitSet {
	if b, ok := a.freePts[f]; ok {
		return b
	}
	b := a.siteBits(a.g.FreePointsTo(f))
	a.freePts[f] = b
	return b
}

// computeExitSummaries closes the per-function freed-site sets over the
// call graph (iterating to a fixpoint handles recursion).
func (a *analysis) computeExitSummaries() {
	n := len(a.sites)
	a.exitSumm = make(map[string]dfa.BitSet)
	for _, fname := range a.order {
		frees := dfa.NewBitSet(n)
		for _, b := range a.prog.Funcs[fname].Blocks {
			for _, in := range b.Instrs {
				if f, ok := in.(*ir.Free); ok {
					frees.Or(a.freeBits(f))
				}
			}
		}
		a.exitSumm[fname] = frees
	}
	for changed := true; changed; {
		changed = false
		for _, fname := range a.order {
			for _, c := range a.callees[fname] {
				if !a.reach[c] {
					continue
				}
				if a.exitSumm[fname].OrChanged(a.exitSumm[c]) {
					changed = true
				}
			}
		}
	}
}

// stepMay applies one instruction's effect on the site-level may-freed set.
func (a *analysis) stepMay(in ir.Instr, may dfa.BitSet) {
	switch in := in.(type) {
	case *ir.Free:
		may.Or(a.freeBits(in))
	case *ir.Call:
		if summ, ok := a.exitSumm[in.Callee]; ok {
			may.Or(summ)
		}
	}
}

// funcInfo caches the per-function structures shared by the entry
// propagation, the final classification, the elision check, and the witness
// reconstruction.
type funcInfo struct {
	fn     *ir.Func
	cfg    *dfa.CFG
	mayGen []dfa.BitSet
	// gens are the may-freed generators (Free and Call instructions) in
	// block/instruction order.
	gens []gen
	// blockReach[b1][b2] reports a CFG path b1 → … → b2 (length ≥ 0).
	blockReach [][]bool
}

type gen struct {
	b, i   int
	label  string
	callee string     // non-empty for call generators
	bits   dfa.BitSet // candidate sites (frees only; calls use exitSumm)
}

func (a *analysis) funcInfo(fname string) (*funcInfo, error) {
	if fi, ok := a.finfo[fname]; ok {
		return fi, nil
	}
	fn := a.prog.Funcs[fname]
	cfg, err := dfa.BuildCFG(fn)
	if err != nil {
		return nil, fmt.Errorf("safety: %s: %w", fname, err)
	}
	fi := &funcInfo{fn: fn, cfg: cfg}
	n := len(a.sites)
	fi.mayGen = make([]dfa.BitSet, len(fn.Blocks))
	for bi, b := range fn.Blocks {
		g := dfa.NewBitSet(n)
		for ii, in := range b.Instrs {
			a.stepMay(in, g)
			switch in := in.(type) {
			case *ir.Free:
				fi.gens = append(fi.gens, gen{b: bi, i: ii, label: in.Site, bits: a.freeBits(in)})
			case *ir.Call:
				if a.reach[in.Callee] {
					fi.gens = append(fi.gens, gen{b: bi, i: ii, label: in.Site, callee: in.Callee})
				}
			}
		}
		fi.mayGen[bi] = g
	}
	nb := len(fn.Blocks)
	fi.blockReach = make([][]bool, nb)
	for b := 0; b < nb; b++ {
		seen := make([]bool, nb)
		seen[b] = true
		stack := []int{b}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range cfg.Succs[cur] {
				if !seen[s] {
					seen[s] = true
					stack = append(stack, s)
				}
			}
		}
		fi.blockReach[b] = seen
	}
	a.finfo[fname] = fi
	return fi, nil
}

// strictlyBefore reports whether the program point (gb, gi) can execute
// before (ub, ui) on some CFG path.
func (fi *funcInfo) strictlyBefore(gb, gi, ub, ui int) bool {
	if gb == ub && gi < ui {
		return true
	}
	for _, s := range fi.cfg.Succs[gb] {
		if fi.blockReach[s][ub] {
			return true
		}
	}
	return false
}

// solveMay runs the intraprocedural may-freed dataflow for fname under its
// current entry boundary.
func (a *analysis) solveMay(fname string) (*funcInfo, *dfa.Result, error) {
	fi, err := a.funcInfo(fname)
	if err != nil {
		return nil, nil, err
	}
	res := dfa.Solve(fi.cfg, dfa.Problem{
		Dir: dfa.Forward, Join: dfa.Union, NumFacts: len(a.sites),
		Boundary: a.entryMay[fname], Gen: fi.mayGen,
	})
	return fi, res, nil
}

// computeEntryMay propagates may-freed facts over the call graph to a
// fixpoint: entryMay[main] = ∅, and each call from f to g unions the
// may-freed set just before the callsite into entryMay[g].
func (a *analysis) computeEntryMay() error {
	n := len(a.sites)
	a.entryMay = make(map[string]dfa.BitSet)
	for _, fname := range a.order {
		a.entryMay[fname] = dfa.NewBitSet(n)
	}
	inWL := make(map[string]bool)
	wl := append([]string(nil), a.order...)
	for _, f := range wl {
		inWL[f] = true
	}
	for len(wl) > 0 {
		fname := wl[0]
		wl = wl[1:]
		inWL[fname] = false
		fi, may, err := a.solveMay(fname)
		if err != nil {
			return err
		}
		for bi, b := range fi.fn.Blocks {
			if !fi.cfg.Reachable(bi) {
				continue
			}
			cur := may.In[bi].Clone()
			for _, in := range b.Instrs {
				if c, ok := in.(*ir.Call); ok && a.reach[c.Callee] {
					if a.entryMay[c.Callee].OrChanged(cur) && !inWL[c.Callee] {
						inWL[c.Callee] = true
						wl = append(wl, c.Callee)
					}
				}
				a.stepMay(in, cur)
			}
		}
	}
	return nil
}

// funcState carries the per-function machinery of the definite analysis.
type funcState struct {
	a     *analysis
	fname string
	fn    *ir.Func

	locs     []loc
	locIndex map[loc]int
	// locSites[l] is the set of sites the location's value may point into.
	locSites []dfa.BitSet
	// locObj[l] is the pta2 object ID of the location's own storage (for
	// store aliasing), or -1.
	locObj   []int
	writable []bool
}

func (a *analysis) newFuncState(fname string, fn *ir.Func) *funcState {
	fs := &funcState{a: a, fname: fname, fn: fn, locIndex: make(map[loc]int)}
	add := func(l loc) {
		if _, ok := fs.locIndex[l]; ok {
			return
		}
		fs.locIndex[l] = len(fs.locs)
		fs.locs = append(fs.locs, l)
	}
	frameRegs := make(map[ir.Reg]uint64)
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if fa, ok := in.(*ir.FrameAddr); ok {
				add(loc{off: fa.Off})
				frameRegs[fa.Dst] = fa.Off
			}
		}
	}
	for _, g := range a.prog.Globals {
		add(loc{global: g.Name})
	}
	addrTaken := addrTakenSlots(fn, frameRegs)

	objID := func(objs []*pta2.Object, match func(*pta2.Object) bool) int {
		for _, o := range objs {
			if match(o) {
				return o.ID
			}
		}
		return -1
	}
	fs.locSites = make([]dfa.BitSet, len(fs.locs))
	fs.locObj = make([]int, len(fs.locs))
	fs.writable = make([]bool, len(fs.locs))
	for i, l := range fs.locs {
		if l.global != "" {
			fs.locSites[i] = a.siteBits(a.g.GlobalPointsTo(l.global))
			fs.locObj[i] = objID(a.g.Objects(), func(o *pta2.Object) bool {
				return o.Kind == pta2.ObjGlobal && o.Global == l.global
			})
			fs.writable[i] = true
		} else {
			fs.locSites[i] = a.siteBits(a.g.SlotPointsTo(fname, l.off))
			fs.locObj[i] = objID(a.g.Objects(), func(o *pta2.Object) bool {
				return o.Kind == pta2.ObjSlot && o.Fn == fname && o.Off == l.off
			})
			fs.writable[i] = addrTaken[l.off]
		}
	}
	return fs
}

// record is the replay callback: one classified use with its candidate
// sites and position (for witness reconstruction).
type record func(kind UseKind, site string, sites dfa.BitSet, definite bool, b, i int)

// exec applies one instruction to the symbolic state, invoking rec (when
// non-nil) for every heap use it encounters.
func (fs *funcState) exec(bi, ii int, in ir.Instr, st *symState, rec record) {
	switch in := in.(type) {
	case *ir.Const, *ir.StrAddr:
		st.clearReg(dstOf(in))
	case *ir.FrameAddr:
		st.clearReg(in.Dst)
		st.addrOf[in.Dst] = fs.locIndex[loc{off: in.Off}]
	case *ir.GlobalAddr:
		st.clearReg(in.Dst)
		if li, ok := fs.locIndex[loc{global: in.Name}]; ok {
			st.addrOf[in.Dst] = li
		}
	case *ir.Bin:
		// Pointer arithmetic keeps danglingness (field offsets into a
		// freed object are just as dangling).
		d := st.dangReg[in.A] || st.dangReg[in.B]
		st.clearReg(in.Dst)
		if d {
			st.dangReg[in.Dst] = true
		}
	case *ir.Un:
		d := st.dangReg[in.A]
		st.clearReg(in.Dst)
		if d {
			st.dangReg[in.Dst] = true
		}
	case *ir.Cvt:
		d := st.dangReg[in.A]
		st.clearReg(in.Dst)
		if d {
			st.dangReg[in.Dst] = true
		}
	case *ir.Copy:
		d := st.dangReg[in.Src]
		ao, hasAO := st.addrOf[in.Src]
		sl, hasSL := st.srcLoc[in.Src]
		st.clearReg(in.Dst)
		if d {
			st.dangReg[in.Dst] = true
		}
		if hasAO {
			st.addrOf[in.Dst] = ao
		}
		if hasSL {
			st.srcLoc[in.Dst] = sl
		}
	case *ir.Load:
		def := st.dangReg[in.Addr]
		if rec != nil {
			rec(UseRead, in.Site, fs.a.regBits(fs.fname, in.Addr), def, bi, ii)
		}
		li, fromLoc := st.addrOf[in.Addr]
		st.clearReg(in.Dst)
		if fromLoc {
			st.srcLoc[in.Dst] = li
			if st.dang.Has(li) {
				st.dangReg[in.Dst] = true
			}
		} else if def {
			// A value read through a dangling pointer is garbage;
			// anything dereferenced through it is definitely wrong.
			st.dangReg[in.Dst] = true
		}
	case *ir.Store:
		def := st.dangReg[in.Addr]
		if rec != nil {
			rec(UseWrite, in.Site, fs.a.regBits(fs.fname, in.Addr), def, bi, ii)
		}
		if li, ok := st.addrOf[in.Addr]; ok {
			if st.dangReg[in.Src] {
				st.dang.Set(li)
			} else {
				st.dang.Clear(li)
			}
			st.dropSrcLoc(li)
			break
		}
		// A store through an unknown pointer conservatively forgets
		// facts about any location whose storage object the pointer may
		// reference (everything, when the points-to set is empty).
		tgt := fs.a.g.RegPointsTo(fs.fname, in.Addr)
		inPts := make(map[int]bool, len(tgt))
		for _, o := range tgt {
			inPts[o.ID] = true
		}
		for li, oid := range fs.locObj {
			if len(tgt) == 0 || (oid >= 0 && inPts[oid]) {
				st.dang.Clear(li)
				st.dropSrcLoc(li)
			}
		}
	case *ir.Malloc:
		st.clearReg(in.Dst)
	case *ir.Free:
		def := st.dangReg[in.Ptr]
		if rec != nil {
			rec(UseFree, in.Site, fs.a.freeBits(in), def, bi, ii)
		}
		if li, ok := st.srcLoc[in.Ptr]; ok {
			st.dang.Set(li)
		}
		st.dangReg[in.Ptr] = true
	case *ir.Call:
		// A location whose current value was handed to a callee that may
		// free one of the sites that value points into certainly dangles
		// afterwards — the Figure 1 pattern g(p).
		if summ, ok := fs.a.exitSumm[in.Callee]; ok {
			for _, arg := range in.Args {
				if li, ok := st.srcLoc[arg]; ok {
					if fs.locSites[li].Intersects(summ) {
						st.dang.Set(li)
					}
				}
			}
		}
		// The callee may overwrite globals and escaped slots, so their
		// facts (and value provenance) die here.
		for li, w := range fs.writable {
			if w {
				st.dang.Clear(li)
				st.dropSrcLoc(li)
			}
		}
		if in.Dst != ir.None {
			st.clearReg(in.Dst)
		}
	case *ir.Intrinsic:
		if in.Dst != ir.None {
			st.clearReg(in.Dst)
		}
	}
}

// solveDang runs the must-dangling location analysis to a fixpoint: entry
// facts are empty, interior blocks start at top, joins intersect, and each
// block's transfer is the symbolic execution in exec. Returns the per-block
// entry fact sets.
func (fs *funcState) solveDang(cfg *dfa.CFG) []dfa.BitSet {
	nb := len(fs.fn.Blocks)
	nl := len(fs.locs)
	in := make([]dfa.BitSet, nb)
	out := make([]dfa.BitSet, nb)
	for b := 0; b < nb; b++ {
		in[b] = dfa.NewBitSet(nl)
		out[b] = dfa.NewBitSet(nl)
		if b != 0 {
			in[b].Fill()
			out[b].Fill()
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range cfg.RPO() {
			if b != 0 {
				first := true
				for _, p := range cfg.Preds[b] {
					if !cfg.Reachable(p) {
						continue
					}
					if first {
						in[b].CopyFrom(out[p])
						first = false
					} else {
						in[b].And(out[p])
					}
				}
			}
			st := newSymState(in[b].Clone())
			for ii, instr := range fs.fn.Blocks[b].Instrs {
				fs.exec(b, ii, instr, st, nil)
			}
			if !out[b].Equal(st.dang) {
				out[b].CopyFrom(st.dang)
				changed = true
			}
		}
	}
	return in
}

// analyzeFunc classifies every heap use in one function at site granularity.
func (a *analysis) analyzeFunc(fname string, rep *Report) error {
	fi, may, err := a.solveMay(fname)
	if err != nil {
		return err
	}
	fs := a.newFuncState(fname, fi.fn)
	dangIn := fs.solveDang(fi.cfg)

	type findingKey struct {
		site    string
		kind    UseKind
		verdict Verdict
		class   int
	}
	seen := make(map[findingKey]bool)
	for bi, b := range fi.fn.Blocks {
		if !fi.cfg.Reachable(bi) {
			continue
		}
		st := newSymState(dangIn[bi].Clone())
		curMay := may.In[bi].Clone()
		rec := func(kind UseKind, site string, sites dfa.BitSet, definite bool, ub, ui int) {
			if sites.Empty() {
				return
			}
			verdict := ProvenSafe
			witnessSite := -1
			for _, s := range sites.Elems() {
				if curMay.Has(s) {
					witnessSite = s
					break
				}
			}
			switch {
			case definite:
				verdict = DefiniteUAF
			case witnessSite >= 0:
				verdict = PossibleUAF
			}
			classID := a.sites[sites.Elems()[0]].ID
			if witnessSite >= 0 {
				classID = a.sites[witnessSite].ID
			}
			k := findingKey{site: site, kind: kind, verdict: verdict, class: classID}
			if seen[k] {
				return
			}
			seen[k] = true
			var witness []WitnessStep
			if verdict != ProvenSafe && witnessSite >= 0 {
				witness = a.witnessFor(fname, ub, ui, site, witnessSite)
			}
			var alloc []string
			freeset := make(map[string]bool)
			for _, s := range sites.Elems() {
				alloc = append(alloc, a.sites[s].Label)
				for l := range a.freeLabels[s] {
					freeset[l] = true
				}
			}
			sort.Strings(alloc)
			rep.Findings = append(rep.Findings, Finding{
				Func: funcOfSite(site), Line: lineOfSite(site), Site: site,
				Kind: kind, Verdict: verdict, ClassID: classID,
				AllocSites: alloc,
				FreeSites:  sortedSites(freeset),
				Witness:    witness,
			})
		}
		for ii, in := range b.Instrs {
			fs.exec(bi, ii, in, st, rec)
			a.stepMay(in, curMay)
		}
	}
	return nil
}

// computeElision decides, per allocation site, whether protection can be
// skipped, and fills Report.Classes (one entry per site).
func (a *analysis) computeElision(rep *Report) {
	escaped := a.globalReachable()
	doms := make(map[string]*domInfo)
	for i, o := range a.sites {
		info := ClassInfo{
			ID:           o.ID,
			AllocSites:   []string{o.Label},
			FreeSites:    sortedSites(a.freeLabels[i]),
			GlobalEscape: escaped[o.ID],
		}
		switch {
		case len(info.FreeSites) > 0:
			info.ElideBlocked = fmt.Sprintf("freed at %s", strings.Join(info.FreeSites, ", "))
		case !a.usesDominated(i, doms):
			info.ElideBlocked = "a use is not dominated by an allocation of the site"
		default:
			info.Elidable = true
			rep.elidableMallocs = append(rep.elidableMallocs, o.Site)
		}
		rep.Classes = append(rep.Classes, info)
	}
}

// globalReachable returns the object IDs transitively reachable from global
// variables (ClassInfo.GlobalEscape).
func (a *analysis) globalReachable() map[int]bool {
	seen := make(map[int]bool)
	var stack []*pta2.Object
	push := func(objs []*pta2.Object) {
		for _, o := range objs {
			if !seen[o.ID] {
				seen[o.ID] = true
				stack = append(stack, o)
			}
		}
	}
	for _, name := range a.g.GlobalNames() {
		push(a.g.GlobalPointsTo(name))
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push(a.g.ContentsPointsTo(o))
	}
	return seen
}

// usesDominated checks the belt-and-braces elision condition at site
// granularity: in the site's allocating function, every use that may touch
// the site must be dominated by some allocation of a site the use's pointer
// may reference. (Per-use compatibility is deliberately any-site-in-set, not
// this-site-only: a use through a pointer that may reference several sites
// is covered by a dominating allocation of any of them.)
func (a *analysis) usesDominated(si int, cache map[string]*domInfo) bool {
	fname := a.sites[si].Fn
	d := domFor(a.prog, fname, cache)
	if d == nil {
		return false
	}
	fn := a.prog.Funcs[fname]
	for bi, b := range fn.Blocks {
		if !d.cfg.Reachable(bi) {
			continue
		}
		for ii, in := range b.Instrs {
			var addr ir.Reg
			switch in := in.(type) {
			case *ir.Load:
				addr = in.Addr
			case *ir.Store:
				addr = in.Addr
			default:
				continue
			}
			bits := a.regBits(fname, addr)
			if !bits.Has(si) {
				continue
			}
			var ms []*ir.Malloc
			for _, m := range a.mallocsIn[fname] {
				if mi, ok := a.siteOf[m]; ok && bits.Has(mi) {
					ms = append(ms, m)
				}
			}
			if !dominatedByAny(d, ms, bi, ii) {
				return false
			}
		}
	}
	return true
}
