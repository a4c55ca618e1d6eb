package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(`ops_total{kind="a"}`, "ops")
	c.Add(3)
	c.Add(2)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	r.CounterFunc("live_reads_total", "reads", func() uint64 { return 9 })

	g := r.Gauge("depth", "queue depth")
	g.Set(4.5)

	h := r.Histogram("lat", "latency", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	if h.Count() != 3 || h.Sum() != 555 {
		t.Errorf("hist count=%d sum=%d", h.Count(), h.Sum())
	}

	s := r.Snapshot()
	if s.Counter(`ops_total{kind="a"}`) != 5 || s.Counter("live_reads_total") != 9 {
		t.Errorf("snapshot counters: %+v", s)
	}
	if s.Gauge("depth") != 4.5 {
		t.Errorf("snapshot gauge: %v", s.Gauge("depth"))
	}
	hs, _ := s.Histogram("lat")
	if want := []uint64{1, 1, 1}; len(hs.Counts) != 3 || hs.Counts[0] != want[0] || hs.Counts[1] != want[1] || hs.Counts[2] != want[2] {
		t.Errorf("hist counts = %v", hs.Counts)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(`pg_syscalls_total{call="mremap"}`, "syscalls by kind").Add(7)
	r.Counter(`pg_syscalls_total{call="mprotect"}`, "syscalls by kind").Add(4)
	h := r.Histogram(`pg_syscall_cycles{call="mremap"}`, "cycles per syscall", []uint64{1500, 3000})
	h.Observe(1200)
	h.Observe(2000)
	h.Observe(9000)

	var b strings.Builder
	if err := r.WritePrometheus(&b, `workload="treeadd"`); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pg_syscalls_total syscalls by kind",
		"# TYPE pg_syscalls_total counter",
		`pg_syscalls_total{call="mremap",workload="treeadd"} 7`,
		`pg_syscalls_total{call="mprotect",workload="treeadd"} 4`,
		"# TYPE pg_syscall_cycles histogram",
		`pg_syscall_cycles_bucket{call="mremap",le="1500",workload="treeadd"} 1`,
		`pg_syscall_cycles_bucket{call="mremap",le="3000",workload="treeadd"} 2`,
		`pg_syscall_cycles_bucket{call="mremap",le="+Inf",workload="treeadd"} 3`,
		`pg_syscall_cycles_sum{call="mremap",workload="treeadd"} 12200`,
		`pg_syscall_cycles_count{call="mremap",workload="treeadd"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Families must not repeat their TYPE line.
	if strings.Count(out, "# TYPE pg_syscalls_total") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
	// Deterministic: a second render is identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2, `workload="treeadd"`); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("exposition is nondeterministic")
	}
}

func TestSnapshotAddSubJSON(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "")
	h := r.Histogram("y", "", []uint64{10})
	c.Add(2)
	h.Observe(4)
	before := r.Snapshot()
	c.Add(3)
	h.Observe(40)
	after := r.Snapshot()

	diff := after.Sub(before)
	if diff.Counter("x_total") != 3 {
		t.Errorf("diff counter = %d, want 3", diff.Counter("x_total"))
	}
	dh, _ := diff.Histogram("y")
	if dh.Count != 1 || dh.Sum != 40 || dh.Counts[0] != 0 || dh.Counts[1] != 1 {
		t.Errorf("diff hist = %+v", dh)
	}

	sum := Snapshot{}
	sum.Add(before)
	sum.Add(diff)
	if sum.Counter("x_total") != after.Counter("x_total") {
		t.Errorf("add: %d != %d", sum.Counter("x_total"), after.Counter("x_total"))
	}

	var b strings.Builder
	if err := after.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counter("x_total") != 5 {
		t.Errorf("round-tripped counter = %d", back.Counter("x_total"))
	}
}

func TestSiteProfile(t *testing.T) {
	p := NewSiteProfile()
	p.AddSyscall("f:3", CatRemap, 1200)
	p.AddSyscall("f:3", CatProtect, 1240)
	p.AddSyscall("g:9", CatMap, 1300)
	p.AddSyscall("", CatMap, 500)
	p.AddTrap("f:3", 3000)
	p.CountAlloc("f:3")
	p.CountFree("f:3")

	if got, want := p.TotalCycles(), uint64(1200+1240+1300+500+3000); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
	sites := p.Sites()
	if sites[0].Site != "f:3" || sites[0].Total() != 5440 {
		t.Errorf("top site = %+v", sites[0])
	}
	if sites[0].Allocs != 1 || sites[0].Frees != 1 || sites[0].Traps != 1 || sites[0].Syscalls != 2 {
		t.Errorf("counts = %+v", sites[0])
	}
	found := false
	for _, s := range sites {
		if s.Site == UntrackedSite && s.MapCycles == 500 {
			found = true
		}
	}
	if !found {
		t.Errorf("untracked bucket missing: %+v", sites)
	}

	q := NewSiteProfile()
	q.AddSyscall("f:3", CatRemap, 100)
	p.Merge(q)
	if p.site("f:3").RemapCycles != 1300 {
		t.Errorf("merge: remap = %d", p.site("f:3").RemapCycles)
	}

	table := p.TopTable(2)
	if !strings.Contains(table, "f:3") || strings.Count(strings.TrimSpace(table), "\n") != 2 {
		t.Errorf("top table:\n%s", table)
	}
	flat := p.FlatProfile()
	if !strings.Contains(flat, "100.00%") || !strings.Contains(flat, "f:3") {
		t.Errorf("flat profile:\n%s", flat)
	}
}

// TestSnapshotAddCommutativeConcurrent is the satellite-4 gate: merging the
// same set of snapshots in any order — and from many goroutines sharing the
// read-only sources — produces the identical aggregate, byte-for-byte in
// the Prometheus exposition. This is the property the serving fleet relies
// on when per-request snapshots land in the aggregate in scheduler order.
// Run under -race: concurrent Add calls against distinct accumulators with
// shared sources must be clean.
func TestSnapshotAddCommutativeConcurrent(t *testing.T) {
	// Build K distinct source snapshots with overlapping and disjoint
	// series, including histograms with matching bounds.
	const sources = 7
	bounds := []uint64{10, 100, 1000}
	snaps := make([]Snapshot, sources)
	for i := range snaps {
		r := NewRegistry()
		r.Counter("pg_test_total", "test counter").Add(uint64(i + 1))
		if i%2 == 0 {
			r.Counter("pg_test_even_total", "even-only counter").Add(uint64(i + 1))
		}
		r.Gauge("pg_test_gauge", "test gauge").Set(float64(i) * 1.5)
		h := r.Histogram("pg_test_hist", "test histogram", bounds)
		for j := 0; j < i*3+1; j++ {
			h.Observe(uint64(j * 40))
		}
		snaps[i] = r.Snapshot()
	}

	render := func(s Snapshot) string {
		var buf bytes.Buffer
		if err := s.WritePrometheus(&buf, ""); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	// goroutine g merges the sources in a rotated order into its own
	// accumulator; all orders must agree exactly.
	const goroutines = 8
	results := make([]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var acc Snapshot
			for k := 0; k < sources; k++ {
				acc.Add(snaps[(g+k)%sources])
			}
			results[g] = render(acc)
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("merge order %d diverged:\n%s\nvs\n%s", g, results[g], results[0])
		}
	}
	if !strings.Contains(results[0], "pg_test_total") ||
		!strings.Contains(results[0], "pg_test_hist_bucket") {
		t.Fatalf("aggregate missing expected series:\n%s", results[0])
	}
	// Spot-check the counter sum: 1+2+...+7 = 28.
	if !strings.Contains(results[0], "pg_test_total 28") {
		t.Fatalf("counter sum wrong:\n%s", results[0])
	}
}
