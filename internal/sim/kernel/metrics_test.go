package kernel

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim/vm"
)

// TestAttributionSumsToChargedCycles exercises every syscall kind under a
// mix of labeled and unlabeled scopes and checks the invariant the profiler
// is built on: the per-site cycle attribution sums exactly to the kernel's
// total charged cycles.
func TestAttributionSumsToChargedCycles(t *testing.T) {
	p := newProc(t)

	prev := p.SetSite("alloc.c:10")
	addr, err := p.Mmap(3 * vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	shadow, err := p.MremapAlias(addr, 2)
	if err != nil {
		t.Fatalf("MremapAlias: %v", err)
	}
	p.SetSite("free.c:20")
	if err := p.Mprotect(shadow, 2, vm.ProtNone); err != nil {
		t.Fatalf("Mprotect: %v", err)
	}
	p.ChargeTrap()
	p.SetSite(prev) // back to unlabeled
	p.DummySyscall()
	if err := p.Munmap(addr+2*vm.PageSize, 1); err != nil {
		t.Fatalf("Munmap: %v", err)
	}

	if got, want := p.Profile().TotalCycles(), p.KernelChargedCycles(); got != want {
		t.Fatalf("profile total %d != kernel charged %d", got, want)
	}

	var count, pages uint64
	for _, st := range p.SyscallStats() {
		count += st.Count
		pages += st.Pages
	}
	if got := p.Meter().Syscalls(); count != got {
		t.Errorf("per-kind counts sum to %d, meter says %d", count, got)
	}

	sites := map[string]*obs.SiteCost{}
	for _, s := range p.Profile().Sites() {
		sites[s.Site] = s
	}
	alloc := sites["alloc.c:10"]
	if alloc == nil || alloc.MapCycles == 0 || alloc.RemapCycles == 0 {
		t.Errorf("alloc site missing map/remap cycles: %+v", alloc)
	}
	free := sites["free.c:20"]
	if free == nil || free.ProtectCycles == 0 || free.TrapCycles == 0 {
		t.Errorf("free site missing protect/trap cycles: %+v", free)
	}
	untracked := sites[obs.UntrackedSite]
	if untracked == nil || untracked.DummyCycles == 0 || untracked.MapCycles == 0 {
		t.Errorf("untracked bucket missing dummy/munmap cycles: %+v", untracked)
	}
}

// TestInjectedFailureIsAttributed checks a failed syscall attempt still lands
// in per-kind accounting and the site profile.
func TestInjectedFailureIsAttributed(t *testing.T) {
	sched, err := ParseSchedule("mprotect:after=0,times=1")
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	cfg := DefaultConfig()
	cfg.Faults = &sched
	cfg.SiteProfile = true
	sys := NewSystem(cfg)
	p, err := NewProcess(sys, cfg)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}

	addr, err := p.Mmap(vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	p.SetSite("free.c:9")
	if err := p.Mprotect(addr, 1, vm.ProtNone); err == nil {
		t.Fatal("expected injected mprotect failure")
	}

	var st SyscallStat
	for _, s := range p.SyscallStats() {
		if s.Call == SysMprotect {
			st = s
		}
	}
	if st.Count != 1 || st.Cycles == 0 || st.Pages != 0 {
		t.Errorf("failed mprotect accounting = %+v", st)
	}
	if got, want := p.Profile().TotalCycles(), p.KernelChargedCycles(); got != want {
		t.Errorf("profile total %d != kernel charged %d", got, want)
	}
}

// TestRegisterMetrics checks the kernel's registry wiring: series exist, the
// per-kind cycle counters agree with the accounting arrays, and histogram
// observation counts match syscall counts.
func TestRegisterMetrics(t *testing.T) {
	p := newProc(t)
	r := obs.NewRegistry()
	p.RegisterMetrics(r)

	addr, err := p.Mmap(2 * vm.PageSize)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	if _, err := p.MremapAlias(addr, 1); err != nil {
		t.Fatalf("MremapAlias: %v", err)
	}

	s := r.Snapshot()
	if got := s.Counter(`pg_syscalls_total{call="mremap"}`); got != 1 {
		t.Errorf(`pg_syscalls_total{call="mremap"} = %d, want 1`, got)
	}
	if got := s.Counter(`pg_syscall_pages_total{call="mmap"}`); got != 2 {
		t.Errorf(`pg_syscall_pages_total{call="mmap"} = %d, want 2`, got)
	}
	if got := s.Counter("pg_cycles_total"); got != p.Meter().Cycles() {
		t.Errorf("pg_cycles_total = %d, want %d", got, p.Meter().Cycles())
	}
	h, _ := s.Histogram(`pg_syscall_cycles{call="mmap"}`)
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	if n != 1 || h.Sum != p.SyscallStats()[0].Cycles {
		t.Errorf("mmap histogram count=%d sum=%d, want 1/%d", n, h.Sum, p.SyscallStats()[0].Cycles)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b, ""); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, `pg_syscalls_total{call="mmap"} 1`) {
		t.Errorf("prometheus output missing mmap counter:\n%s", out)
	}
}
