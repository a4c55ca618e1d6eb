package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/workload"
)

func mustWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps every configuration")
	}
	if err := run(0, "", "jwhois", "", "", "", "", 1); err != nil {
		t.Fatalf("probe: %v", err)
	}
	if err := run(0, "", "no-such-workload", "", "", "", "", 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestUnknownStudy(t *testing.T) {
	if err := run(0, "bogus", "", "", "", "", "", 1); err == nil {
		t.Fatal("unknown study accepted")
	}
}

func TestSingleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweep")
	}
	if err := run(2, "", "", "", "", "", "", 1); err != nil {
		t.Fatalf("table 2: %v", err)
	}
}

// TestMetricsExport checks the -metrics artifact pair: JSON with exact
// per-workload attribution, and a Prometheus exposition with workload labels.
func TestMetricsExport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Olden workload")
	}
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := run(0, "", "", "", path, "", "", 1); err != nil {
		t.Fatalf("metrics: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc metricsDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != "pgbench-metrics/v1" || doc.Config != "ours" {
		t.Errorf("doc header = %q/%q", doc.Schema, doc.Config)
	}
	if len(doc.Workloads) != len(metricsWorkloads()) {
		t.Errorf("workloads = %d, want %d", len(doc.Workloads), len(metricsWorkloads()))
	}
	for name, wm := range doc.Workloads {
		if wm.ChargedCycles == 0 || wm.AttributedCycles != wm.ChargedCycles {
			t.Errorf("%s: attributed %d, charged %d", name, wm.AttributedCycles, wm.ChargedCycles)
		}
		if wm.Metrics.Counters["pg_allocs_total"] == 0 {
			t.Errorf("%s: no allocs in metric snapshot", name)
		}
	}

	prom, err := os.ReadFile(strings.TrimSuffix(path, ".json") + ".prom")
	if err != nil {
		t.Fatal(err)
	}
	text := string(prom)
	for _, want := range []string{
		`pg_syscall_cycles_total{call="mremap",workload="treeadd"}`,
		`pg_allocs_total{workload="bisort"}`,
		"# TYPE pg_syscall_cycles histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestBenchExportAndCheck round-trips -bench through -check-bench and
// validates the rows against a direct measurement.
func TestBenchExportAndCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps utilities + Olden under two configurations")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(0, "", "", "", "", path, "", 1); err != nil {
		t.Fatalf("bench: %v", err)
	}
	if err := checkBench([]string{path}); err != nil {
		t.Fatalf("check-bench: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	rows := map[string]benchResult{}
	for _, r := range doc.Results {
		rows[r.Workload+"/"+r.Config] = r
	}
	ours, ok := rows["treeadd/ours"]
	if !ok {
		t.Fatal("no treeadd/ours row")
	}
	m, err := experiment.Run(mustWorkload(t, "treeadd"), experiment.Ours, experiment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ours.Cycles != m.Cycles || ours.Ops != m.Allocs+m.Frees {
		t.Errorf("treeadd/ours row %+v disagrees with a direct run (cycles %d, ops %d)",
			ours, m.Cycles, m.Allocs+m.Frees)
	}
	base, ok := rows["treeadd/llvm-base"]
	if !ok {
		t.Fatal("no treeadd/llvm-base row")
	}
	if base.Ops != ours.Ops {
		t.Errorf("op counts differ across configs: %d vs %d", base.Ops, ours.Ops)
	}
	if base.NsPerOp >= ours.NsPerOp {
		t.Errorf("baseline ns/op %v not below detection ns/op %v", base.NsPerOp, ours.NsPerOp)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns what
// it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = old
	w.Close()
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestParallelTableByteIdentical asserts the -j contract: the rendered table
// is the same byte-for-byte whether the harness runs cells sequentially or
// across 8 workers.
func TestParallelTableByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("generates Table 3 twice")
	}
	seq := captureStdout(t, func() error { return run(3, "", "", "", "", "", "", 1) })
	par := captureStdout(t, func() error { return run(3, "", "", "", "", "", "", 8) })
	if seq != par {
		t.Errorf("table 3 output differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", seq, par)
	}
}

// TestParallelMetricsByteIdentical asserts the same contract for -metrics:
// the merged per-workload snapshots (profiles, metric series, charged
// cycles) are byte-identical across worker counts. Only the Harness section
// — wall-clock observations about the host run itself — may differ.
func TestParallelMetricsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every Olden workload twice")
	}
	workloadsJSON := func(parallel int) []byte {
		t.Helper()
		path := filepath.Join(t.TempDir(), "metrics.json")
		if err := run(0, "", "", "", path, "", "", parallel); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc metricsDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		out, err := json.MarshalIndent(doc.Workloads, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seq := workloadsJSON(1)
	par := workloadsJSON(8)
	if string(seq) != string(par) {
		t.Errorf("-metrics workload sections differ between -j 1 and -j 8")
	}
}

// TestCheckBenchRejectsCorruptFiles exercises the validator's failure paths.
func TestCheckBenchRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if err := checkBench([]string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing file accepted")
	}
	if err := checkBench([]string{write("junk.json", "{")}); err == nil {
		t.Error("malformed JSON accepted")
	}
	if err := checkBench([]string{write("schema.json", `{"schema":"other/v9"}`)}); err == nil {
		t.Error("wrong schema accepted")
	}
	if err := checkBench([]string{write("empty.json",
		`{"schema":"pgbench/v1","clock_hz":3e9,"results":[]}`)}); err == nil {
		t.Error("empty results accepted")
	}
}
