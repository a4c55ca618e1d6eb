package core

import (
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim/vm"
)

// TestTrapReportAssembly checks the forensic report a detected dangling use
// carries: kind, provenance, offsets, the shadow/canonical address pair, and
// the dangle duration.
func TestTrapReportAssembly(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 32)
	f.free(t, a)
	freedAt := f.proc.Meter().Cycles()

	err := f.write(a+8, 7)
	var de *DanglingError
	if !errors.As(err, &de) {
		t.Fatalf("expected DanglingError, got %v", err)
	}
	rep := de.Report
	if rep == nil {
		t.Fatal("DanglingError carries no TrapReport")
	}
	if rep.Kind != obs.TrapWrite {
		t.Errorf("kind = %q, want write", rep.Kind)
	}
	if rep.UseSite != "test.c:3" || rep.AllocSite != "test.c:1" || rep.FreeSite != "test.c:2" {
		t.Errorf("sites = %q/%q/%q", rep.UseSite, rep.AllocSite, rep.FreeSite)
	}
	if rep.ObjectSize != 32 || rep.Offset != 8 || rep.State != "freed" {
		t.Errorf("object = %+v", rep)
	}
	if rep.Pool != "" || rep.PoolID != 0 {
		t.Errorf("direct-mode report names a pool: %q/%d", rep.Pool, rep.PoolID)
	}
	if rep.FaultAddr != uint64(a)+8 || rep.ShadowAddr != uint64(a) {
		t.Errorf("addresses = %#x/%#x, want %#x/%#x", rep.FaultAddr, rep.ShadowAddr, a+8, a)
	}
	if rep.CanonAddr != uint64(de.Object.CanonAddr)+remapHeaderSize+8 {
		t.Errorf("canon addr = %#x", rep.CanonAddr)
	}
	if rep.PageOffset != rep.FaultAddr%vm.PageSize {
		t.Errorf("page offset = %d", rep.PageOffset)
	}
	if rep.FreeCycles == 0 || rep.FreeCycles > freedAt || rep.TrapCycles <= rep.FreeCycles {
		t.Errorf("cycles: free=%d trap=%d", rep.FreeCycles, rep.TrapCycles)
	}
	if rep.CyclesSinceFree != rep.TrapCycles-rep.FreeCycles {
		t.Errorf("since-free = %d", rep.CyclesSinceFree)
	}
	if rep.AllocLine != 0 || rep.FreeLine != 0 {
		t.Errorf("non-trace run has trace lines: %d/%d", rep.AllocLine, rep.FreeLine)
	}

	// The golden String rendering of a live report must parse back from its
	// own JSON.
	data, err2 := rep.JSON()
	if err2 != nil {
		t.Fatal(err2)
	}
	back, err2 := obs.ParseTrapReport(data)
	if err2 != nil {
		t.Fatal(err2)
	}
	if back.String() != rep.String() {
		t.Error("JSON round-trip changed the rendering")
	}
}

// TestDoubleFreeReport checks the batched-mode bookkeeping double free
// carries a double-free report too.
func TestDoubleFreeReport(t *testing.T) {
	f := newFixture(t, Config{})
	f.rm.EnableBatchedProtect(8)
	a := f.alloc(t, 16)
	f.free(t, a)

	err := f.rm.Free(HeapAllocator{f.heap}, a, "test.c:7")
	var de *DanglingError
	if !errors.As(err, &de) {
		t.Fatalf("expected DanglingError, got %v", err)
	}
	if de.Report == nil || de.Report.Kind != obs.TrapDoubleFree {
		t.Fatalf("report = %+v", de.Report)
	}
	if de.Report.Offset != -remapHeaderSize {
		t.Errorf("offset = %d", de.Report.Offset)
	}
	if de.Report.UseSite != "test.c:7" {
		t.Errorf("use site = %q", de.Report.UseSite)
	}
}

// TestSiteAttribution checks the remapper scopes kernel charges to
// allocation sites: the alloc-side mmap/mremap and the free-side mprotect
// and trap all land on "test.c:1", and the profile still sums to the
// kernel's total.
func TestSiteAttribution(t *testing.T) {
	f := newFixture(t, Config{})
	a := f.alloc(t, 32)
	f.free(t, a)
	if err := f.read(a); err == nil {
		t.Fatal("dangling read undetected")
	}

	var site *obs.SiteCost
	for _, s := range f.proc.Profile().Sites() {
		if s.Site == "test.c:1" {
			site = s
		}
	}
	if site == nil {
		t.Fatal("no profile entry for test.c:1")
	}
	if site.RemapCycles == 0 || site.ProtectCycles == 0 || site.TrapCycles == 0 {
		t.Errorf("attribution incomplete: %+v", site)
	}
	if site.Allocs != 1 || site.Frees != 1 || site.Traps != 1 {
		t.Errorf("counts: %+v", site)
	}
	if got, want := f.proc.Profile().TotalCycles(), f.proc.KernelChargedCycles(); got != want {
		t.Errorf("profile total %d != kernel charged %d", got, want)
	}
}

// TestRemapperRegisterMetrics checks the counter wiring end to end.
func TestRemapperRegisterMetrics(t *testing.T) {
	f := newFixture(t, Config{})
	r := obs.NewRegistry()
	f.rm.RegisterMetrics(r)

	a := f.alloc(t, 32)
	b := f.alloc(t, 32)
	f.free(t, a)
	_ = f.read(a)

	s := r.Snapshot()
	if s.Counter("pg_allocs_total") != 2 || s.Counter("pg_frees_total") != 1 {
		t.Errorf("allocs/frees = %d/%d", s.Counter("pg_allocs_total"), s.Counter("pg_frees_total"))
	}
	if s.Counter("pg_dangling_detected_total") != 1 {
		t.Errorf("dangling = %d", s.Counter("pg_dangling_detected_total"))
	}
	if s.Gauge("pg_shadow_pages_live") != 1 {
		t.Errorf("live pages = %v", s.Gauge("pg_shadow_pages_live"))
	}
	_ = b
}
