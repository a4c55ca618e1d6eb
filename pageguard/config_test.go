package pageguard_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/pageguard"
)

// churnSrc frees short-lived lists from a pool that dies with build, then
// churns malloc/free in main's long-lived pool, where reuse policies act.
const churnSrc = `
struct node { int v; struct node *next; };
int build(int n) {
  struct node *head = NULL;
  int i;
  for (i = 0; i < n; i = i + 1) {
    struct node *x = (struct node*)malloc(sizeof(struct node));
    x->v = i;
    x->next = head;
    head = x;
  }
  int sum = 0;
  while (head != NULL) {
    struct node *nx = head->next;
    sum = sum + head->v;
    free(head);
    head = nx;
  }
  return sum;
}
void main() {
  int i;
  int total = 0;
  for (i = 0; i < 30; i = i + 1) {
    total = total + build(20);
  }
  for (i = 0; i < 600; i = i + 1) {
    char *p = malloc(24);
    p[0] = 'x';
    free(p);
  }
  print_int(total);
}
`

func compileChurn(t *testing.T) *pageguard.Program {
	t.Helper()
	prog, err := pageguard.Compile(churnSrc)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

func runChurn(t *testing.T, prog *pageguard.Program, mode pageguard.Mode, opts ...pageguard.Option) *pageguard.Result {
	t.Helper()
	res, err := prog.Run(pageguard.NewMachine(opts...), mode)
	if err != nil {
		t.Fatalf("Run(%v): %v", mode, err)
	}
	if res.Err != nil {
		t.Fatalf("Run(%v): program error: %v", mode, res.Err)
	}
	return res
}

// TestRunHonoursOptions: Program.Run builds its process through the same
// helper as NewProcess, so a malformed spec is an error and every detector
// option changes the run.
func TestRunHonoursOptions(t *testing.T) {
	prog := compileChurn(t)
	for _, opt := range []pageguard.Option{
		pageguard.WithPolicySpec("bogus"),
		pageguard.WithSampling("bogus"),
		pageguard.WithFaultSchedule("bogus"),
	} {
		if _, err := prog.Run(pageguard.NewMachine(opt), pageguard.ModeDetectNoPA); err == nil || !strings.Contains(err.Error(), "bogus") {
			t.Errorf("malformed spec: Run err = %v, want the spec error", err)
		}
	}
	base := runChurn(t, prog, pageguard.ModeDetectNoPA)
	if base.Spans != nil {
		t.Errorf("untraced run recorded %d spans", len(base.Spans))
	}
	if traced := runChurn(t, prog, pageguard.ModeDetectNoPA, pageguard.WithSpanTracing()); len(traced.Spans) == 0 || traced.Cycles != base.Cycles {
		t.Errorf("WithSpanTracing: %d spans, %d cycles (untraced %d)", len(traced.Spans), traced.Cycles, base.Cycles)
	}
	for name, opt := range map[string]pageguard.Option{
		"rate=0": pageguard.WithSampling("rate=0"),
		"guards": pageguard.WithOverflowGuards(),
		"gc=64":  pageguard.WithPolicySpec("gc=64"),
	} {
		res := runChurn(t, prog, pageguard.ModeDetectNoPA, opt)
		if res.Cycles == base.Cycles && res.VirtualPages == base.VirtualPages {
			t.Errorf("%s: cycles %d and vpages %d equal the default run's", name, res.Cycles, res.VirtualPages)
		}
		if res.Output != base.Output {
			t.Errorf("%s: output %q, want %q", name, res.Output, base.Output)
		}
	}
}

// TestRunRefusesDetectorOptionsWithoutDetector: a mode with no detector
// cannot serve a detector option, and says which.
func TestRunRefusesDetectorOptionsWithoutDetector(t *testing.T) {
	prog := compileChurn(t)
	for want, opt := range map[string]pageguard.Option{
		"WithPolicySpec":     pageguard.WithPolicySpec("gc=64"),
		"WithOverflowGuards": pageguard.WithOverflowGuards(),
		"WithSampling":       pageguard.WithSampling("rate=2"),
	} {
		for _, mode := range []pageguard.Mode{pageguard.ModeNative, pageguard.ModePA} {
			if _, err := prog.Run(pageguard.NewMachine(opt), mode); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%v with %s: Run err = %v, want it named", mode, want, err)
			}
		}
	}
	// The default policy, spelled out, is no detector option.
	runChurn(t, prog, pageguard.ModeNative, pageguard.WithPolicySpec("never"))
	if _, err := prog.Run(pageguard.NewMachine(), pageguard.Mode(99)); err == nil {
		t.Error("Run accepted an unknown mode")
	}
}

// TestReusePolicyMatchesItsSpec: WithReusePolicy(p) and
// WithPolicySpec(PolicySpecString(p)) are one configuration, through
// NewProcess and through Program.Run alike.
func TestReusePolicyMatchesItsSpec(t *testing.T) {
	prog := compileChurn(t)
	policies := []pageguard.ReusePolicy{
		{Kind: pageguard.PolicyOnExhaustion},
		{Kind: pageguard.PolicyInterval, Interval: 32},
		{Kind: pageguard.PolicyInterval, Interval: 64, WatermarkPages: 16, CooldownAllocs: 8},
		{Kind: pageguard.PolicyGC},
		{Kind: pageguard.PolicyGC, Interval: 64, OnPoolDestroy: true},
		{Kind: pageguard.PolicyGC, Interval: 16, WatermarkPages: 24, MinFreedPages: 8, CooldownAllocs: 32},
	}
	for _, p := range policies {
		spec := core.PolicySpecString(p)
		direct := func(opt pageguard.Option) pageguard.Stats {
			proc, err := pageguard.NewMachine(opt).NewProcess()
			if err != nil {
				t.Fatalf("%s: NewProcess: %v", spec, err)
			}
			for i := 0; i < 300; i++ {
				ptr, err := proc.Malloc(24, "")
				if err != nil {
					t.Fatalf("%s: Malloc: %v", spec, err)
				}
				if err := proc.Free(ptr, ""); err != nil {
					t.Fatalf("%s: Free: %v", spec, err)
				}
			}
			return proc.Stats()
		}
		byValue, bySpec := direct(pageguard.WithReusePolicy(p)), direct(pageguard.WithPolicySpec(spec))
		if byValue != bySpec {
			t.Errorf("%s: NewProcess stats differ:\nvalue %v\nspec  %v", spec, byValue, bySpec)
		}
		if p.Kind == pageguard.PolicyGC && byValue.GCRuns == 0 {
			t.Errorf("%s: the policy clock never fired", spec)
		}
		for _, mode := range []pageguard.Mode{pageguard.ModeDetect, pageguard.ModeDetectNoPA} {
			a := runChurn(t, prog, mode, pageguard.WithReusePolicy(p))
			b := runChurn(t, prog, mode, pageguard.WithPolicySpec(spec))
			if a.Cycles != b.Cycles || a.Syscalls != b.Syscalls || a.VirtualPages != b.VirtualPages {
				t.Errorf("%s under %v: value run %d cycles %d syscalls %d vpages, spec run %d %d %d",
					spec, mode, a.Cycles, a.Syscalls, a.VirtualPages, b.Cycles, b.Syscalls, b.VirtualPages)
			}
		}
	}
}

func TestParseModeInvertsString(t *testing.T) {
	for m := pageguard.ModeNative; m <= pageguard.ModeDetectStatic; m++ {
		got, err := pageguard.ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if _, err := pageguard.ParseMode("mode(0)"); err == nil {
		t.Error("ParseMode accepted an unknown name")
	}
}
