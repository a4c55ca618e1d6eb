package kernel

import (
	"errors"
	"testing"

	"repro/internal/sim/vm"
)

// mustParse parses a schedule or fails the test.
func mustParse(t *testing.T, spec string) Schedule {
	t.Helper()
	s, err := ParseSchedule(spec)
	if err != nil {
		t.Fatalf("ParseSchedule(%q): %v", spec, err)
	}
	return s
}

func TestScheduleRoundTrip(t *testing.T) {
	specs := []string{
		"seed=42;mremap:prob=0.02;mprotect:after=10,times=3,errno=EAGAIN",
		"seed=0;mmap:every=4",
		"seed=7;*:prob=0.5",
		"seed=5;mremap:vabudget=448;mmap:framebudget=1024",
		"seed=11;mprotect-runs:after=2,times=1",
	}
	for _, spec := range specs {
		s := mustParse(t, spec)
		got := s.String()
		s2 := mustParse(t, got)
		if s2.String() != got {
			t.Errorf("round trip unstable: %q -> %q -> %q", spec, got, s2.String())
		}
	}
}

// FuzzParseSchedule checks that the rendering of any schedule ParseSchedule
// accepts is canonical: it parses back, and renders to itself. Strings are
// compared rather than structs because distinct rules can share a form —
// "seed=0;*:vabudget=0" parses to a parameterless rule that renders as
// "every=1", and both fail every matching call.
func FuzzParseSchedule(f *testing.F) {
	for _, spec := range []string{
		"seed=42;mremap:prob=0.02;mprotect:after=10,times=3,errno=EAGAIN",
		"seed=0;mmap:every=4",
		"seed=7;*:prob=0.5",
		"seed=5;mremap:vabudget=448;mmap:framebudget=1024",
		"seed=11;mprotect-runs:after=2,times=1",
		"seed=0;*:vabudget=0",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := ParseSchedule(canon)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, canon, err)
		}
		if again := s2.String(); again != canon {
			t.Fatalf("%q renders as %q, which renders as %q", spec, canon, again)
		}
	})
}

func TestScheduleParseErrors(t *testing.T) {
	bad := []string{
		"seed=x",
		"seed=1;munmap:every=1",
		"seed=1;mmap",
		"seed=1;mmap:prob=2.0",
		"seed=1;mmap:bogus=3",
		"seed=1;mmap:prob=0.5,vabudget=10",
		"seed=1;mmap:errno=EIO",
	}
	for _, spec := range bad {
		if _, err := ParseSchedule(spec); err == nil {
			t.Errorf("ParseSchedule(%q): want error, got nil", spec)
		}
	}
	if s, err := ParseSchedule(""); err != nil || len(s.Rules) != 0 {
		t.Errorf("empty schedule: got %+v, %v", s, err)
	}
}

func TestCountRule(t *testing.T) {
	s := mustParse(t, "seed=1;mremap:after=2,every=2,times=3")
	in := s.NewInjector(0)
	var fails []int
	for i := 0; i < 20; i++ {
		if se := in.Check(SyscallInfo{Call: SysMremap, Pages: 1, FreshVA: true}); se != nil {
			fails = append(fails, i)
			if !se.Transient {
				t.Errorf("count rule fault at %d not transient", i)
			}
			if se.Errno != ENOMEM {
				t.Errorf("count rule errno = %v, want ENOMEM", se.Errno)
			}
		}
	}
	// Skip 2, then fail every 2nd attempt, 3 times: attempts 2, 4, 6.
	want := []int{2, 4, 6}
	if len(fails) != len(want) {
		t.Fatalf("fails = %v, want %v", fails, want)
	}
	for i := range want {
		if fails[i] != want[i] {
			t.Fatalf("fails = %v, want %v", fails, want)
		}
	}
	// Non-matching calls are untouched.
	if se := in.Check(SyscallInfo{Call: SysMprotect, Pages: 1}); se != nil {
		t.Errorf("mprotect failed under mremap-only rule: %v", se)
	}
}

func TestProbRuleDeterminism(t *testing.T) {
	s := mustParse(t, "seed=1337;mremap:prob=0.25;mprotect:prob=0.25")
	run := func(procIndex uint64) []FaultEvent {
		in := s.NewInjector(procIndex)
		for i := 0; i < 200; i++ {
			in.Check(SyscallInfo{Call: SysMremap, Pages: 1, FreshVA: true})
			in.Check(SyscallInfo{Call: SysMprotect, Pages: 1})
		}
		return in.Events()
	}
	a, b := run(0), run(0)
	if len(a) == 0 {
		t.Fatal("prob=0.25 over 400 attempts injected nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different process index under the same schedule gets a different
	// stream (otherwise every connection would fault identically).
	c := run(1)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("process 0 and process 1 drew identical fault streams")
	}
}

func TestBudgetRule(t *testing.T) {
	s := mustParse(t, "seed=0;mremap:vabudget=100")
	in := s.NewInjector(0)
	// Under budget: fine.
	if se := in.Check(SyscallInfo{Call: SysMremap, Pages: 4, FreshVA: true, ReservedPages: 90}); se != nil {
		t.Fatalf("under budget failed: %v", se)
	}
	// Over budget: persistent failure.
	se := in.Check(SyscallInfo{Call: SysMremap, Pages: 4, FreshVA: true, ReservedPages: 98})
	if se == nil {
		t.Fatal("over budget succeeded")
	}
	if se.Transient {
		t.Error("budget fault marked transient")
	}
	// Calls that reuse reserved VA (FreshVA false) never hit a VA budget.
	if se := in.Check(SyscallInfo{Call: SysMremap, Pages: 4, ReservedPages: 500}); se != nil {
		t.Fatalf("fixed-address alias hit VA budget: %v", se)
	}
	// Budget pressure relieved: succeeds again.
	if se := in.Check(SyscallInfo{Call: SysMremap, Pages: 4, FreshVA: true, ReservedPages: 10}); se != nil {
		t.Fatalf("after relief failed: %v", se)
	}
}

func TestFrameBudgetRule(t *testing.T) {
	s := mustParse(t, "seed=0;mmap:framebudget=64,errno=EAGAIN")
	in := s.NewInjector(0)
	if se := in.Check(SyscallInfo{Call: SysMmap, Pages: 8, NewFrames: true, FramesInUse: 40}); se != nil {
		t.Fatalf("under frame budget failed: %v", se)
	}
	se := in.Check(SyscallInfo{Call: SysMmap, Pages: 8, NewFrames: true, FramesInUse: 60})
	if se == nil {
		t.Fatal("over frame budget succeeded")
	}
	if se.Errno != EAGAIN {
		t.Errorf("errno = %v, want EAGAIN", se.Errno)
	}
}

// TestKernelHooks drives real syscalls through a faulted process and checks
// the injected errors surface as *SyscallError, state stays consistent, and
// the fault log records everything.
func TestKernelHooks(t *testing.T) {
	cfg := DefaultConfig()
	sched := mustParse(t, "seed=3;mremap:after=0,times=1;mprotect:after=0,times=1")
	cfg.Faults = &sched
	sys := NewSystem(cfg)
	p, err := NewProcess(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Mmap(2 * vm.PageSize)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}

	// First mremap fails by schedule.
	if _, err := p.MremapAlias(base, 2); err == nil {
		t.Fatal("first mremap succeeded despite schedule")
	} else {
		var se *SyscallError
		if !errors.As(err, &se) {
			t.Fatalf("mremap error %T is not *SyscallError", err)
		}
		if !se.Temporary() {
			t.Error("count-injected fault not Temporary")
		}
	}
	// Retry succeeds (times=1 exhausted).
	alias, err := p.MremapAlias(base, 2)
	if err != nil {
		t.Fatalf("mremap retry: %v", err)
	}

	// First mprotect fails, retry succeeds.
	if err := p.Mprotect(alias, 2, vm.ProtNone); err == nil {
		t.Fatal("first mprotect succeeded despite schedule")
	}
	if err := p.Mprotect(alias, 2, vm.ProtNone); err != nil {
		t.Fatalf("mprotect retry: %v", err)
	}

	faults := p.InjectedFaults()
	if len(faults) != 2 {
		t.Fatalf("InjectedFaults = %v, want 2 events", faults)
	}
	if faults[0].Call != SysMremap || faults[1].Call != SysMprotect {
		t.Errorf("fault calls = %v %v", faults[0].Call, faults[1].Call)
	}
	if err := p.Exit(); err != nil {
		t.Fatalf("exit after faults: %v", err)
	}
	if sys.PhysMemory().InUse() != 0 {
		t.Errorf("frames leaked after exit: %d", sys.PhysMemory().InUse())
	}
}

// TestNoScheduleNoOverhead: a nil schedule must leave the syscall path
// untouched (no injector, no events, identical behaviour).
func TestNoScheduleNoOverhead(t *testing.T) {
	cfg := DefaultConfig()
	sys := NewSystem(cfg)
	p, err := NewProcess(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.inject != nil {
		t.Error("injector created without schedule")
	}
	if got := p.InjectedFaults(); len(got) != 0 {
		t.Errorf("InjectedFaults without schedule = %v", got)
	}
}
