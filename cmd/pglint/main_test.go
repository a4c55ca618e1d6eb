package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/workload"
)

// TestRunningExampleFlagsDefiniteV1: the original acceptance bar, preserved
// under -engine v1 — Figure 1's dangling p->next->val is DEFINITE-UAF there
// because the unification analysis merges the head into the freed class.
func TestRunningExampleFlagsDefiniteV1(t *testing.T) {
	var out strings.Builder
	definite, err := lint(workload.RunningExampleSrc, options{engine: "v1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if definite == 0 {
		t.Fatal("running example produced no DEFINITE-UAF findings under v1")
	}
	text := out.String()
	if !strings.Contains(text, "DEFINITE-UAF") {
		t.Errorf("output missing DEFINITE-UAF:\n%s", text)
	}
	if !strings.Contains(text, "main:") {
		t.Errorf("output does not locate the dangling use in main:\n%s", text)
	}
	if !strings.Contains(text, "freed at: free_all_but_head:") {
		t.Errorf("output missing free-site provenance:\n%s", text)
	}
}

// TestRunningExampleWitnessV2: under the site-granular engine the head is
// (correctly) separated from the freed tail nodes, so p itself never
// dangles and the p->next uses demote to POSSIBLE — but each must carry the
// full interprocedural witness from the freeing loop through g back into
// main. This is the sanctioned DEFINITE→POSSIBLE-with-witness shrink.
func TestRunningExampleWitnessV2(t *testing.T) {
	var out strings.Builder
	definite, err := lint(workload.RunningExampleSrc, options{}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if definite != 0 {
		t.Fatalf("v2 reports %d DEFINITE findings; expected the witnessed POSSIBLE demotion:\n%s",
			definite, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "POSSIBLE-UAF") {
		t.Fatalf("running example produced no POSSIBLE findings:\n%s", text)
	}
	if !strings.Contains(text, "witness: free[free_all_but_head:24] -> call[g:33] -> call[main:38] -> use[main:39]") {
		t.Errorf("missing the interprocedural witness for main:39:\n%s", text)
	}
}

// TestDefiniteRankedFirst: DEFINITE findings print before POSSIBLE ones.
func TestDefiniteRankedFirst(t *testing.T) {
	// Both tiers under v2: a[0] is definitely dangling after the
	// unconditional free; c's use is only conditionally reachable after
	// free(c)... a second buffer freed behind a branch gives POSSIBLE.
	src := `
void main() {
  int *a = (int*)malloc(4 * sizeof(int));
  int *c = (int*)malloc(4 * sizeof(int));
  c[0] = 2;
  int k = c[0];
  if (k > 1) free(c);
  a[0] = 1;
  free(a);
  print_int(a[0]);
  print_int(c[0]);
}
`
	var out strings.Builder
	if _, err := lint(src, options{}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	firstDef := strings.Index(text, "DEFINITE-UAF")
	firstPos := strings.Index(text, "POSSIBLE-UAF")
	if firstDef < 0 || firstPos < 0 {
		t.Fatalf("expected both tiers in output:\n%s", text)
	}
	if firstDef > firstPos {
		t.Error("POSSIBLE finding printed before a DEFINITE one")
	}
}

func TestCleanProgramExitsZeroAndReportsElision(t *testing.T) {
	src := `
struct s { int val; };
void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  p->val = 1;
  print_int(p->val);
}
`
	var out strings.Builder
	definite, err := lint(src, options{}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if definite != 0 {
		t.Fatalf("clean program flagged %d DEFINITE findings:\n%s", definite, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "1 of 1 allocation sites elidable") {
		t.Errorf("elision summary missing or wrong:\n%s", text)
	}
	if !strings.Contains(text, "malloc sites: main:4") {
		t.Errorf("elidable site list missing:\n%s", text)
	}
	if strings.Contains(text, "PROVEN-SAFE") {
		t.Errorf("PROVEN-SAFE uses listed without -safe:\n%s", text)
	}
}

func TestSafeFlagListsProvenUses(t *testing.T) {
	src := `
struct s { int val; };
void main() {
  struct s *p = (struct s*)malloc(sizeof(struct s));
  p->val = 1;
  print_int(p->val);
}
`
	var out strings.Builder
	if _, err := lint(src, options{safe: true}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "PROVEN-SAFE") {
		t.Errorf("-safe did not list proven uses:\n%s", out.String())
	}
}

// TestEngineFlag: -engine v1 selects the class-granular analysis (summary
// says "heap classes"), -engine v2 the site-granular one, anything else is
// rejected.
func TestEngineFlag(t *testing.T) {
	src := `
void main() {
  int *p = (int*)malloc(4 * sizeof(int));
  p[0] = 1;
  print_int(p[0]);
}
`
	var v1, v2 strings.Builder
	if _, err := lint(src, options{engine: "v1"}, &v1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v1.String(), "heap classes elidable") {
		t.Errorf("v1 summary wrong:\n%s", v1.String())
	}
	if _, err := lint(src, options{engine: "v2"}, &v2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v2.String(), "allocation sites elidable") {
		t.Errorf("v2 summary wrong:\n%s", v2.String())
	}
	if _, err := lint(src, options{engine: "v3"}, &strings.Builder{}); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestStatsFlag: -stats prints summaries only, no per-finding lines.
func TestStatsFlag(t *testing.T) {
	var out strings.Builder
	if _, err := lint(workload.RunningExampleSrc, options{stats: true}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Contains(text, "allocated at:") || strings.Contains(text, "witness:") {
		t.Errorf("-stats printed finding detail:\n%s", text)
	}
	if !strings.Contains(text, "classified uses") || !strings.Contains(text, "elision:") {
		t.Errorf("-stats missing summary lines:\n%s", text)
	}
}

// TestJSONOutput: the -json document carries the schema tag, engine,
// sorted findings with witnesses, classes, and stats — and is byte-stable
// across runs.
func TestJSONOutput(t *testing.T) {
	// The callee unconditionally frees its argument's only site, so the
	// later use is DEFINITE under v2 and its witness crosses the call.
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
	var out strings.Builder
	definite, err := lint(src, options{jsonF: true}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if definite == 0 {
		t.Fatal("expected definite findings")
	}
	var doc jsonReport
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if doc.Schema != Schema {
		t.Errorf("schema = %q, want %q", doc.Schema, Schema)
	}
	if doc.Engine != "v2" {
		t.Errorf("engine = %q, want v2", doc.Engine)
	}
	if len(doc.Findings) == 0 || len(doc.Classes) == 0 {
		t.Fatalf("empty findings/classes:\n%s", out.String())
	}
	if doc.Stats.Definite != definite {
		t.Errorf("stats.definite = %d, want %d", doc.Stats.Definite, definite)
	}
	// JSON carries every tier (PROVEN-SAFE included) so golden diffs and
	// the monotonicity gate see the full classification.
	sawProven, sawWitness := false, false
	for _, f := range doc.Findings {
		if f.Verdict == "PROVEN-SAFE" {
			sawProven = true
		}
		if len(f.Witness) > 0 {
			sawWitness = true
			if f.Witness[0].Role != "free" || f.Witness[len(f.Witness)-1].Role != "use" {
				t.Errorf("witness must run free→…→use, got %+v", f.Witness)
			}
		}
	}
	if !sawProven {
		t.Error("JSON omits PROVEN-SAFE findings")
	}
	if !sawWitness {
		t.Error("no finding carries a witness")
	}
	// Byte-stability: a second run must produce identical output.
	var again strings.Builder
	if _, err := lint(src, options{jsonF: true}, &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Error("-json output not deterministic across runs")
	}
}

// TestFindingOrderDeterministic locks the diagnostic ordering contract:
// findings sort by (func, line, verdict, kind, class) and the output is
// byte-identical across runs.
func TestFindingOrderDeterministic(t *testing.T) {
	// Two distinct-verdict findings on the same source line: the read of
	// the freed buffer (DEFINITE after free) and the write through the
	// live one. Ordering must be (func, line, verdict, kind, class) and
	// identical across runs.
	src := `
void main() {
  int *a = (int*)malloc(4 * sizeof(int));
  int *b = (int*)malloc(4 * sizeof(int));
  a[0] = 1;
  free(a);
  b[0] = a[0];
  print_int(b[0]);
}
`
	var out1, out2 strings.Builder
	if _, err := lint(src, options{safe: true}, &out1); err != nil {
		t.Fatal(err)
	}
	if _, err := lint(src, options{safe: true}, &out2); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("diagnostic order unstable:\n--- run 1\n%s--- run 2\n%s", out1.String(), out2.String())
	}
	// Within line 7 the DEFINITE read must precede anything else reported
	// there (the ranked printer shows tiers in order; the JSON document
	// interleaves by line — check the JSON path too).
	var jout strings.Builder
	if _, err := lint(src, options{jsonF: true}, &jout); err != nil {
		t.Fatal(err)
	}
	var doc jsonReport
	if err := json.Unmarshal([]byte(jout.String()), &doc); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(doc.Findings); i++ {
		a, b := doc.Findings[i-1], doc.Findings[i]
		if a.Func > b.Func || (a.Func == b.Func && a.Line > b.Line) {
			t.Fatalf("findings not sorted by (func, line): %+v before %+v", a, b)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out strings.Builder
	if _, err := run("", options{}, nil, &out); err == nil {
		t.Error("no input accepted")
	}
	if _, err := run("no-such-workload", options{}, nil, &out); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestAllWorkloadsLint: every bundled workload must compile and analyze
// under both engines; only the running example may carry DEFINITE findings
// (v1) or POSSIBLE-with-witness findings standing in for them (v2).
func TestAllWorkloadsLint(t *testing.T) {
	for _, wl := range workload.All() {
		for _, engine := range []string{"v1", "v2"} {
			var out strings.Builder
			definite, err := run(wl.Name, options{engine: engine}, nil, &out)
			if err != nil {
				t.Errorf("%s/%s: %v", wl.Name, engine, err)
				continue
			}
			if wl.Name == "running-example" {
				switch engine {
				case "v1":
					if definite == 0 {
						t.Errorf("%s/v1: expected DEFINITE findings", wl.Name)
					}
				case "v2":
					// v2 demotes the Figure 1 bug to a witnessed POSSIBLE,
					// so the lint exits 0 under the default engine.
					if definite != 0 || !strings.Contains(out.String(), "witness: free[") {
						t.Errorf("%s/v2: expected only witnessed POSSIBLE findings (%d DEFINITE):\n%s",
							wl.Name, definite, out.String())
					}
				}
			} else if definite != 0 {
				t.Errorf("%s/%s: unexpected DEFINITE findings:\n%s", wl.Name, engine, out.String())
			}
		}
	}
}
