package pageguard

import (
	"errors"
	"strings"
	"testing"
)

// TestStatsStringGolden locks the Stats rendering: the fault block must
// appear whenever ANY fault-related counter is nonzero, not only when a
// fault was injected.
func TestStatsStringGolden(t *testing.T) {
	base := Stats{Allocs: 10, Frees: 9, DanglingDetected: 1,
		Cycles: 123456, Syscalls: 21, VirtualPages: 12}
	if got, want := base.String(),
		"allocs=10 frees=9 dangling=1 cycles=123456 syscalls=21 vpages=12"; got != want {
		t.Errorf("fault-free stats:\n got %q\nwant %q", got, want)
	}

	faulted := base
	faulted.InjectedFaults = 3
	faulted.TransientRetries = 2
	faulted.DegradedAllocs = 1
	faulted.UnprotectedFrees = 1
	if got, want := faulted.String(),
		"allocs=10 frees=9 dangling=1 cycles=123456 syscalls=21 vpages=12"+
			" faults=3 retries=2 degraded=1 degraded-frees=0 unprotected=1"; got != want {
		t.Errorf("faulted stats:\n got %q\nwant %q", got, want)
	}

	// The PR-2 regression: degradation without a surviving injected-fault
	// count must still be visible.
	degradedOnly := base
	degradedOnly.DegradedAllocs = 2
	if got := degradedOnly.String(); !strings.Contains(got, "degraded=2") {
		t.Errorf("degradation counters dropped from %q", got)
	}
	unprotectedOnly := base
	unprotectedOnly.UnprotectedFrees = 4
	if got := unprotectedOnly.String(); !strings.Contains(got, "unprotected=4") {
		t.Errorf("unprotected-free counter dropped from %q", got)
	}
}

// TestProcessObservability drives a dangling use through the public API and
// checks the trap report, the metrics registry, and the profile line up.
func TestProcessObservability(t *testing.T) {
	m := NewMachine(WithSiteProfile())
	p, err := m.NewProcess()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	p.RegisterMetrics(reg)

	ptr, err := p.Malloc(64, "app.c:10")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Free(ptr, "app.c:20"); err != nil {
		t.Fatal(err)
	}
	err = p.Write(ptr, 8, []byte{1})
	var de *DanglingError
	if !errors.As(err, &de) {
		t.Fatalf("expected DanglingError, got %v", err)
	}
	if de.Report == nil {
		t.Fatal("no trap report on public-API dangling error")
	}
	text := de.Report.String()
	for _, want := range []string{
		"==PageGuard== dangling pointer write at write",
		"allocated: at app.c:10",
		"freed:     at app.c:20",
		"(direct heap)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}

	if got, want := p.Profile().TotalCycles(), p.ChargedCycles(); got != want {
		t.Errorf("profile total %d != charged %d", got, want)
	}
	s := reg.Snapshot()
	if s.Counter("pg_allocs_total") != 1 || s.Counter("pg_dangling_detected_total") != 1 {
		t.Errorf("registry counters: allocs=%d dangling=%d",
			s.Counter("pg_allocs_total"), s.Counter("pg_dangling_detected_total"))
	}
	if s.Counter("pg_traps_total") != 1 {
		t.Errorf("pg_traps_total = %d", s.Counter("pg_traps_total"))
	}
	if s.Counter(`pg_syscalls_total{call="mremap"}`) == 0 {
		t.Error("no mremap syscalls recorded")
	}
	if err := p.Exit(); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledRunCarriesReportAndProfile checks the Program API surfaces
// both observability artifacts.
func TestCompiledRunCarriesReportAndProfile(t *testing.T) {
	prog, err := Compile(`
void main() {
  char *p = malloc(24);
  free(p);
  p[1] = (char)7;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run(NewMachine(WithSiteProfile()), ModeDetect)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Dangling(); !ok {
		t.Fatalf("dangling use undetected: %v", res.Err)
	}
	if res.Report == nil {
		t.Fatal("result carries no trap report")
	}
	if res.Report.Kind != TrapWrite || res.Report.Offset != 1 {
		t.Errorf("report = kind %q offset %d", res.Report.Kind, res.Report.Offset)
	}
	if !strings.HasPrefix(res.Report.AllocSite, "main:") {
		t.Errorf("alloc site = %q", res.Report.AllocSite)
	}
	if res.Profile == nil || res.Profile.TotalCycles() == 0 {
		t.Error("result carries no attribution profile")
	}
	if _, err := ParseTrapReport(mustJSON(t, res.Report)); err != nil {
		t.Errorf("report JSON does not re-parse: %v", err)
	}
}

func mustJSON(t *testing.T, r *TrapReport) []byte {
	t.Helper()
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
