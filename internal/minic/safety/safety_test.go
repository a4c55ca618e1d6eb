package safety_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/minic/driver"
	"repro/internal/minic/ir"
	"repro/internal/minic/poolalloc"
	"repro/internal/minic/safety"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := driver.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func analyze(t *testing.T, src string) *safety.Report {
	t.Helper()
	rep, err := safety.Analyze(compile(t, src))
	if err != nil {
		t.Fatalf("safety.Analyze: %v", err)
	}
	return rep
}

// figure1 is the paper's running example: g builds a list and frees all but
// the head, then main dereferences p->next — a dangling use.
const figure1 = `
struct s { int val; struct s *next; };

void create_10_node_list(struct s *p) {
  int i;
  struct s *q = p;
  for (i = 0; i < 9; i = i + 1) {
    q->next = (struct s*)malloc(sizeof(struct s));
    q = q->next;
  }
  q->next = NULL;
}

void initialize(struct s *p) {
  struct s *q = p;
  while (q != NULL) { q->val = 1; q = q->next; }
}

void free_all_but_head(struct s *p) {
  struct s *q = p->next;
  while (q != NULL) {
    struct s *n = q->next;
    free(q);
    q = n;
  }
}

void g(struct s *p) {
  p->next = (struct s*)malloc(sizeof(struct s));
  create_10_node_list(p);
  initialize(p);
  free_all_but_head(p);
}

void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  g(p);
  p->next->val = 5;
  print_int(p->next->val);
}
`

func TestNeverFreedIsProvenSafeAndElidable(t *testing.T) {
	prog := compile(t, `
struct s { int val; struct s *next; };
void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  p->val = 3;
  p->next = NULL;
  print_int(p->val);
}
`)
	rep, err := safety.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("expected findings for the dereferences")
	}
	for _, f := range rep.Findings {
		if f.Verdict != safety.ProvenSafe {
			t.Errorf("%s %s: verdict %v, want PROVEN-SAFE", f.Site, f.Kind, f.Verdict)
		}
	}
	elidable := 0
	for _, c := range rep.Classes {
		if c.Elidable {
			elidable++
		} else {
			t.Errorf("class %d not elidable: %s", c.ID, c.ElideBlocked)
		}
	}
	if elidable == 0 {
		t.Fatal("no elidable class for a never-freed allocation")
	}
	if n := rep.MarkElidable(); n == 0 {
		t.Error("MarkElidable marked nothing")
	}
	marked := 0
	for _, b := range prog.Funcs["main"].Blocks {
		for _, in := range b.Instrs {
			if m, ok := in.(*ir.Malloc); ok && m.Elidable {
				marked++
			}
		}
	}
	if marked == 0 {
		t.Error("no malloc instruction carries the Elidable flag")
	}
	if sites := rep.ElidableSites(); len(sites) == 0 {
		t.Error("ElidableSites empty")
	}
}

func TestStraightLineFreeThenUse(t *testing.T) {
	rep := analyze(t, `
struct s { int val; };
void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  p->val = 1;
  free(p);
  print_int(p->val);
}
`)
	byLine := map[int]safety.Verdict{}
	for _, f := range rep.Findings {
		if f.Func == "main" {
			byLine[f.Line] = f.Verdict
		}
	}
	if v := byLine[5]; v != safety.ProvenSafe {
		t.Errorf("pre-free write: %v, want PROVEN-SAFE", v)
	}
	if v := byLine[6]; v != safety.ProvenSafe {
		t.Errorf("first free: %v, want PROVEN-SAFE", v)
	}
	if v := byLine[7]; v != safety.DefiniteUAF {
		t.Errorf("post-free read: %v, want DEFINITE-UAF", v)
	}
}

func TestBranchyFreeIsPossible(t *testing.T) {
	rep := analyze(t, `
struct s { int val; };
void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  if (p->val > 0) {
    free(p);
  }
  print_int(p->val);
}
`)
	var last safety.Finding
	found := false
	for _, f := range rep.Findings {
		if f.Func == "main" && f.Line == 8 {
			last, found = f, true
		}
	}
	if !found {
		t.Fatal("post-branch read not classified")
	}
	if last.Verdict != safety.PossibleUAF {
		t.Errorf("one-armed free then use: %v, want POSSIBLE-UAF", last.Verdict)
	}
}

func TestDoubleFreeIsDefinite(t *testing.T) {
	rep := analyze(t, `
struct s { int val; };
void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  free(p);
  free(p);
}
`)
	var frees []safety.Finding
	for _, f := range rep.Findings {
		if f.Kind == safety.UseFree {
			frees = append(frees, f)
		}
	}
	if len(frees) != 2 {
		t.Fatalf("got %d free findings, want 2", len(frees))
	}
	if frees[0].Verdict != safety.ProvenSafe {
		t.Errorf("first free: %v, want PROVEN-SAFE", frees[0].Verdict)
	}
	if frees[1].Verdict != safety.DefiniteUAF {
		t.Errorf("double free: %v, want DEFINITE-UAF", frees[1].Verdict)
	}
}

// verdicts reduces a report to one verdict per "site/kind" key, failing on
// a key that carries two different verdicts.
func verdicts(t *testing.T, rep *safety.Report) map[string]safety.Verdict {
	t.Helper()
	out := map[string]safety.Verdict{}
	for _, f := range rep.Findings {
		k := f.Site + "/" + f.Kind.String()
		if v, ok := out[k]; ok && v != f.Verdict {
			t.Fatalf("%s: verdicts %v and %v", k, v, f.Verdict)
		}
		out[k] = f.Verdict
	}
	return out
}

// Recursion: a recursive function that frees its argument after recursing
// on the tail. Every read happens on the way down, before any free, so it
// is PROVEN-SAFE; the free itself may follow the recursive call's free of
// another object from the same site, so it is POSSIBLE; and the freed site
// must not elide.
func TestRecursiveFreeVerdicts(t *testing.T) {
	rep := analyze(t, `
struct s { int val; struct s *next; };

void drop(struct s *p) {
  if (p == NULL) { return; }
  drop(p->next);
  free(p);
}

void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  p->next = NULL;
  p->val = 1;
  drop(p);
}
`)
	want := map[string]safety.Verdict{
		"main:12/write": safety.ProvenSafe,
		"main:13/write": safety.ProvenSafe,
		"drop:6/read":   safety.ProvenSafe,
		"drop:7/free":   safety.PossibleUAF,
	}
	if got := verdicts(t, rep); !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts = %v, want %v", got, want)
	}
	if sites := rep.ElidableSites(); len(sites) != 0 {
		t.Errorf("ElidableSites = %v despite the recursive free", sites)
	}
}

// Pointers returned through struct fields: fill allocates box.ptr, main
// reads it back and frees both objects. Every use precedes the free of its
// own site, so all are PROVEN-SAFE, and both freed sites keep protection.
func TestStructFieldReturnVerdicts(t *testing.T) {
	rep := analyze(t, `
struct inner { int val; };
struct box { struct inner *ptr; };

void fill(struct box *b) {
  b->ptr = (struct inner*)malloc(sizeof(struct inner));
  b->ptr->val = 7;
}

void main() {
  struct box *b = (struct box*)malloc(sizeof(struct box));
  fill(b);
  print_int(b->ptr->val);
  free(b->ptr);
  free(b);
}
`)
	for _, f := range rep.Findings {
		if f.Verdict != safety.ProvenSafe {
			t.Errorf("%s %s: %v, want PROVEN-SAFE", f.Site, f.Kind, f.Verdict)
		}
	}
	got := verdicts(t, rep)
	for _, k := range []string{"fill:6/write", "fill:7/read", "fill:7/write", "main:13/read", "main:14/free", "main:15/free"} {
		if _, ok := got[k]; !ok {
			t.Errorf("use %s not classified", k)
		}
	}
	if sites := rep.ElidableSites(); len(sites) != 0 {
		t.Errorf("ElidableSites = %v despite the frees", sites)
	}
}

// Satellite: globals aliased to locals. A local stored into a global can be
// freed through the global by any callee; uses away from the allocation must
// be POSSIBLE, never PROVEN-SAFE.
func TestGlobalAliasDegradesToPossible(t *testing.T) {
	rep := analyze(t, `
struct s { int val; };
struct s *cache;

void evict() {
  free(cache);
}

void touch(struct s *p) {
  print_int(p->val);
}

void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  cache = p;
  p->val = 2;
  evict();
  touch(p);
}
`)
	// Every use inside touch (called after evict) and the evict free read
	// a freed-somewhere class: nothing there may be PROVEN-SAFE.
	for _, f := range rep.Findings {
		if f.Func == "touch" && f.Verdict == safety.ProvenSafe {
			t.Errorf("%s %s in touch: PROVEN-SAFE for a global-aliased freed class", f.Site, f.Kind)
		}
	}
	// main's use after the evict() call is definitely dangling.
	for _, f := range rep.Findings {
		if f.Func == "main" && f.Line == 17 && f.Verdict != safety.DefiniteUAF {
			t.Errorf("use after evict(): %v, want DEFINITE-UAF", f.Verdict)
		}
	}
	for _, c := range rep.Classes {
		if c.Elidable {
			t.Errorf("class %d elidable despite global-reachable free", c.ID)
		}
	}
}

func TestFindingsSortedAndDeterministic(t *testing.T) {
	rep1 := analyze(t, figure1)
	rep2 := analyze(t, figure1)
	if !reflect.DeepEqual(rep1.Findings, rep2.Findings) {
		t.Fatal("findings differ across identical runs")
	}
	for i := 1; i < len(rep1.Findings); i++ {
		a, b := rep1.Findings[i-1], rep1.Findings[i]
		if a.Func > b.Func || (a.Func == b.Func && a.Line > b.Line) {
			t.Fatalf("findings out of (func, line) order: %v before %v", a, b)
		}
	}
	for _, f := range rep1.Findings {
		if strings.Count(f.Site, ":") == 0 {
			t.Errorf("site %q missing func:line shape", f.Site)
		}
		for i := 1; i < len(f.FreeSites); i++ {
			if f.FreeSites[i-1] > f.FreeSites[i] {
				t.Errorf("free sites unsorted: %v", f.FreeSites)
			}
		}
		for i := 1; i < len(f.AllocSites); i++ {
			if f.AllocSites[i-1] > f.AllocSites[i] {
				t.Errorf("alloc sites unsorted: %v", f.AllocSites)
			}
		}
	}
}

func TestUnreferencedFunctionsIgnored(t *testing.T) {
	// dead() frees the class, but is unreachable from main, so the class
	// stays never-freed and elidable.
	rep := analyze(t, `
struct s { int val; };
void dead(struct s *p) { free(p); }
void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  p->val = 1;
  print_int(p->val);
}
`)
	for _, f := range rep.Findings {
		if f.Func == "dead" {
			t.Errorf("finding in unreachable function: %+v", f)
		}
		if f.Verdict != safety.ProvenSafe {
			t.Errorf("%s: %v, want PROVEN-SAFE (free is unreachable)", f.Site, f.Verdict)
		}
	}
	elidable := false
	for _, c := range rep.Classes {
		if c.Elidable {
			elidable = true
		}
	}
	if !elidable {
		t.Error("class with only unreachable frees should be elidable")
	}
}

func TestRejectsPoolAllocatedPrograms(t *testing.T) {
	prog := compile(t, figure1)
	if _, err := poolalloc.Transform(prog); err != nil {
		t.Fatalf("poolalloc: %v", err)
	}
	if _, err := safety.Analyze(prog); err == nil {
		t.Fatal("Analyze accepted a pool-allocated program")
	}
}

func TestVerdictAndKindStrings(t *testing.T) {
	if safety.DefiniteUAF.String() != "DEFINITE-UAF" ||
		safety.PossibleUAF.String() != "POSSIBLE-UAF" ||
		safety.ProvenSafe.String() != "PROVEN-SAFE" {
		t.Error("verdict strings wrong")
	}
	if safety.UseRead.String() != "read" || safety.UseWrite.String() != "write" || safety.UseFree.String() != "free" {
		t.Error("kind strings wrong")
	}
}

func TestByVerdict(t *testing.T) {
	rep := analyze(t, `
struct s { int val; };
void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  p->val = 1;
  free(p);
  print_int(p->val);
}
`)
	def := rep.ByVerdict(safety.DefiniteUAF)
	if len(def) != 1 || def[0].Site != "main:7" {
		t.Fatalf("ByVerdict(DEFINITE-UAF) = %+v, want the read at main:7", def)
	}
	for _, v := range []safety.Verdict{safety.ProvenSafe, safety.PossibleUAF, safety.DefiniteUAF} {
		for _, f := range rep.ByVerdict(v) {
			if f.Verdict != v {
				t.Errorf("ByVerdict(%v) returned %v", v, f.Verdict)
			}
		}
	}
}

func roles(w []safety.WitnessStep) string {
	var rs []string
	for _, s := range w {
		rs = append(rs, s.Role)
	}
	return strings.Join(rs, ",")
}

// The paper's running example in miniature: free in a callee, use after
// return. The use is DEFINITE and carries an interprocedural witness.
func TestV2RunningExample(t *testing.T) {
	src := `
void g(int *q) {
  free(q);
}
void main() {
  int *p = (int*)malloc(4 * sizeof(int));
  p[0] = 7;
  g(p);
  print_int(p[0]);
}
`
	r2 := analyze(t, src)
	var def []safety.Finding
	for _, f := range r2.Findings {
		if f.Verdict == safety.DefiniteUAF {
			def = append(def, f)
		}
	}
	if len(def) == 0 {
		t.Fatalf("expected a DEFINITE finding, got %+v", r2.Findings)
	}
	use := def[0]
	if use.Func != "main" {
		t.Fatalf("definite finding in %s, want main", use.Func)
	}
	if len(use.Witness) == 0 {
		t.Fatalf("definite finding lacks a witness: %+v", use)
	}
	got := roles(use.Witness)
	if got != "free,call,use" {
		t.Fatalf("witness roles = %s, want free,call,use", got)
	}
	if use.Witness[0].Site != "g:3" {
		t.Fatalf("witness free step = %s, want g:3", use.Witness[0].Site)
	}
	if use.Witness[len(use.Witness)-1].Site != use.Site {
		t.Fatalf("witness must end at the use site")
	}
}

// Two arrays subscripted through a shared counter (a unification analysis
// would merge them into one class): the sites stay apart, so the un-freed
// array's uses are PROVEN-SAFE and its malloc site elides.
func TestV2SharedIndexPrecision(t *testing.T) {
	src := `
void main() {
  int *bodies = (int*)malloc(8 * sizeof(int));
  int *cells = (int*)malloc(8 * sizeof(int));
  int c;
  for (c = 0; c < 8; c = c + 1) {
    bodies[c] = c;
    cells[c] = 2 * c;
  }
  int s = 0;
  for (c = 0; c < 8; c = c + 1) s = s + bodies[c] + cells[c];
  print_int(s);
  free(cells);
}
`
	r2 := analyze(t, src)
	el2 := r2.ElidableSites()
	if len(el2) != 1 || el2[0] != "main:3" {
		t.Fatalf("elidable = %v, want [main:3]", el2)
	}
	// The never-freed array's uses must be proven safe.
	sawProven := false
	for _, f := range r2.Findings {
		for _, as := range f.AllocSites {
			if as == "main:3" && len(f.AllocSites) == 1 {
				if f.Verdict != safety.ProvenSafe {
					t.Fatalf("use %s of main:3 is %v, want PROVEN-SAFE", f.Site, f.Verdict)
				}
				sawProven = true
			}
		}
	}
	if !sawProven {
		t.Fatalf("no finding attributes only main:3")
	}
	// And the freed array keeps a POSSIBLE (loop: use and free alternate
	// orders are not distinguished intraprocedurally) or better verdict
	// with witnesses where non-proven.
	for _, f := range r2.Findings {
		if f.Verdict != safety.ProvenSafe && len(f.Witness) == 0 {
			t.Fatalf("non-proven finding without witness: %+v", f)
		}
	}
}

// The interprocedural boundary: a helper that only runs before any free is
// proven safe by the entryMay fixpoint (assuming every free has already
// happened at every non-main entry would leave it POSSIBLE).
func TestV2EntryBoundaryPrecision(t *testing.T) {
	src := `
int use(int *q) {
  return q[0];
}
void main() {
  int *p = (int*)malloc(4 * sizeof(int));
  p[0] = 9;
  print_int(use(p));
  free(p);
}
`
	sawUse := false
	for _, f := range analyze(t, src).Findings {
		if f.Func == "use" {
			sawUse = true
			if f.Verdict != safety.ProvenSafe {
				t.Fatalf("verdict in use() = %v, want PROVEN-SAFE", f.Verdict)
			}
		}
	}
	if !sawUse {
		t.Fatal("no finding in use()")
	}
}

// Free-before-call through the entry boundary: the callee's use must be
// POSSIBLE with a witness that crosses the callsite.
func TestV2EntryWitness(t *testing.T) {
	src := `
int *gp;
int peek() {
  return gp[0];
}
void main() {
  gp = (int*)malloc(4 * sizeof(int));
  gp[0] = 3;
  free(gp);
  print_int(peek());
}
`
	r2 := analyze(t, src)
	found := false
	for _, f := range r2.Findings {
		if f.Func != "peek" || f.Verdict == safety.ProvenSafe {
			continue
		}
		found = true
		got := roles(f.Witness)
		if got != "free,call,use" {
			t.Fatalf("witness roles = %s (steps %+v), want free,call,use", got, f.Witness)
		}
		if f.Witness[0].Site != "main:9" {
			t.Fatalf("free step = %s, want main:9", f.Witness[0].Site)
		}
		if f.Witness[1].Site != "main:10" {
			t.Fatalf("call step = %s, want main:10", f.Witness[1].Site)
		}
	}
	if !found {
		t.Fatalf("expected a non-proven finding in peek(): %+v", r2.Findings)
	}
}
