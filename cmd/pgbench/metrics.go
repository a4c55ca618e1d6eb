package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/workload"
)

// metricsDoc is the -metrics export: one observability bundle per workload,
// all measured under the paper's configuration (Ours).
type metricsDoc struct {
	Schema    string                     `json:"schema"`
	Config    string                     `json:"config"`
	ClockHz   float64                    `json:"clock_hz"`
	Workloads map[string]workloadMetrics `json:"workloads"`
	// Harness holds the pg_harness_* series: wall-clock observations about
	// the measurement harness itself (worker count, per-cell seconds).
	// They live outside Workloads because they describe the host run, not
	// the simulation — the Workloads section is identical for any -j.
	Harness obs.Snapshot `json:"harness"`
}

type workloadMetrics struct {
	// ChargedCycles is the kernel's total for syscalls + traps; the
	// profile's attributed total must equal it exactly.
	ChargedCycles    uint64           `json:"charged_cycles"`
	AttributedCycles uint64           `json:"attributed_cycles"`
	Profile          *obs.SiteProfile `json:"profile"`
	Metrics          obs.Snapshot     `json:"metrics"`
}

// metricsWorkloads is the set the -metrics export measures: the nine Olden
// benchmarks (allocation-intensive, so the per-site attribution is dense).
func metricsWorkloads() []workload.Workload {
	return workload.ByCategory(workload.Olden)
}

// runMetrics measures every metrics workload under Ours and writes two
// artifacts: a JSON snapshot document at path, and a Prometheus text
// exposition next to it (same path with a .prom extension), each workload's
// series carrying a workload="name" label. It fails if any workload's
// per-site cycle attribution does not sum exactly to the kernel's charged
// total.
func runMetrics(path string, opts experiment.Options) error {
	doc := metricsDoc{
		Schema:    "pgbench-metrics/v1",
		Config:    experiment.Ours.String(),
		ClockHz:   experiment.ClockHz,
		Workloads: map[string]workloadMetrics{},
	}
	var prom strings.Builder
	ws := metricsWorkloads()
	cells := make([]experiment.Cell, len(ws))
	for i, w := range ws {
		cells[i] = experiment.Cell{Workload: w, Config: experiment.Ours}
	}
	ms, err := experiment.RunCells(cells, opts)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for i, w := range ws {
		m := ms[i]
		if m.Profile == nil {
			return fmt.Errorf("metrics %s: run carries no attribution profile", w.Name)
		}
		attributed := m.Profile.TotalCycles()
		if attributed != m.ChargedCycles {
			return fmt.Errorf("metrics %s: attribution drift: profile sums to %d cycles but the kernel charged %d",
				w.Name, attributed, m.ChargedCycles)
		}
		// The static-analysis verdict gauges are compile-time facts about
		// the workload, independent of the measured configuration; attach
		// them so the export shows them next to the runtime pg_* series.
		static, err := experiment.StaticMetricsSnapshot(w)
		if err != nil {
			return fmt.Errorf("metrics %s: static analysis: %w", w.Name, err)
		}
		m.Metrics.Add(static)
		doc.Workloads[w.Name] = workloadMetrics{
			ChargedCycles:    m.ChargedCycles,
			AttributedCycles: attributed,
			Profile:          m.Profile,
			Metrics:          m.Metrics,
		}
		if err := m.Metrics.WritePrometheus(&prom, fmt.Sprintf("workload=%q", w.Name)); err != nil {
			return err
		}
	}
	hreg := obs.NewRegistry()
	experiment.Harness().RegisterMetrics(hreg)
	obs.RegisterBuildInfo(hreg, harnessStart)
	doc.Harness = hreg.Snapshot()
	if err := doc.Harness.WritePrometheus(&prom, ""); err != nil {
		return err
	}

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	promPath := strings.TrimSuffix(path, ".json") + ".prom"
	if err := os.WriteFile(promPath, []byte(prom.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s: %d workloads, attribution exact for all\n",
		path, promPath, len(doc.Workloads))
	return nil
}

// benchDoc is the -bench export: machine-readable per-workload results for
// the baseline and the paper's configuration.
type benchDoc struct {
	Schema  string        `json:"schema"`
	ClockHz float64       `json:"clock_hz"`
	Results []benchResult `json:"results"`
}

type benchResult struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Cycles   uint64 `json:"cycles"`
	Syscalls uint64 `json:"syscalls"`
	Allocs   uint64 `json:"allocs"`
	Frees    uint64 `json:"frees"`
	// Ops is the workload's allocator operation count (allocs + frees, as
	// observed by the shadow runtime); it is the same for both configs of
	// a workload since they execute the same program.
	Ops      uint64  `json:"ops"`
	NsPerOp  float64 `json:"ns_per_op"`
	Dangling uint64  `json:"dangling"`
}

// benchConfigs are the configurations -bench compares: the LLVM baseline
// the paper's Table 1/3 overheads are relative to, and the paper's scheme.
func benchConfigs() []experiment.Config {
	return []experiment.Config{experiment.LLVMBase, experiment.Ours}
}

// benchWorkloads is the -bench sweep: the batch utilities and the Olden
// benchmarks (Tables 1-3's non-server rows).
func benchWorkloads() []workload.Workload {
	return append(workload.ByCategory(workload.Utility),
		workload.ByCategory(workload.Olden)...)
}

// runBench sweeps every bench workload under the bench configurations and
// writes the per-workload results as JSON to path.
func runBench(path string, opts experiment.Options) error {
	doc := benchDoc{Schema: "pgbench/v1", ClockHz: experiment.ClockHz}
	for _, w := range benchWorkloads() {
		// Run the shadow configuration first: only it counts allocator
		// operations, and both rows share the op count (same program).
		ours, err := experiment.Run(w, experiment.Ours, opts)
		if err != nil {
			return fmt.Errorf("bench %s/%s: %w", w.Name, experiment.Ours, err)
		}
		ops := ours.Allocs + ours.Frees
		for _, c := range benchConfigs() {
			m := ours
			if c != experiment.Ours {
				m, err = experiment.Run(w, c, opts)
				if err != nil {
					return fmt.Errorf("bench %s/%s: %w", w.Name, c, err)
				}
			}
			r := benchResult{
				Workload: w.Name,
				Config:   c.String(),
				Cycles:   m.Cycles,
				Syscalls: m.Counters.Syscalls,
				Allocs:   m.Allocs,
				Frees:    m.Frees,
				Ops:      ops,
				Dangling: m.DanglingDetected,
			}
			if ops > 0 {
				r.NsPerOp = float64(m.Cycles) / experiment.ClockHz / float64(ops) * 1e9
			}
			doc.Results = append(doc.Results, r)
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d results across %d workloads\n",
		path, len(doc.Results), len(benchWorkloads()))
	return nil
}

// checkBench validates one or more benchmark artifacts in a single
// invocation, dispatching each on its schema field. No two files may carry
// the same schema: two artifacts claiming to be the same report is an error,
// not a merge. Every per-schema checker pins clock_hz to experiment.ClockHz,
// so the set needs no cross-file clock comparison.
func checkBench(paths []string) error {
	bySchema := map[string]string{} // schema -> first path carrying it
	for _, path := range paths {
		schema, err := checkBenchFile(path)
		if err != nil {
			return err
		}
		if prev, dup := bySchema[schema]; dup {
			return fmt.Errorf("%s and %s both carry schema %q — one invocation takes one artifact per schema",
				prev, path, schema)
		}
		bySchema[schema] = path
	}
	if len(paths) > 1 {
		fmt.Printf("validated %d artifacts (%d schemas)\n", len(paths), len(bySchema))
	}
	return nil
}

// checkBenchFile validates one artifact and returns its schema.
func checkBenchFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	switch head.Schema {
	case "pgbench/v1":
		var doc benchDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		return head.Schema, checkBenchV1(path, &doc)
	case "pgbench-exhaustion/v1":
		var edoc exhaustBenchDoc
		if err := json.Unmarshal(data, &edoc); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		return head.Schema, checkExhaustBench(path, &edoc)
	case "pgbench-sampling/v1":
		var pdoc sampleBenchDoc
		if err := json.Unmarshal(data, &pdoc); err != nil {
			return "", fmt.Errorf("%s: %w", path, err)
		}
		return head.Schema, checkSampleBench(path, &pdoc)
	}
	return "", fmt.Errorf("%s: schema %q, want pgbench/v1, pgbench-exhaustion/v1, or pgbench-sampling/v1",
		path, head.Schema)
}

// checkBenchV1 validates a -bench document: schema, completeness (every
// bench workload under every bench configuration), and result sanity.
func checkBenchV1(path string, doc *benchDoc) error {
	if doc.ClockHz != experiment.ClockHz {
		return fmt.Errorf("%s: clock_hz %g, want %g", path, doc.ClockHz, experiment.ClockHz)
	}
	seen := map[string]bool{}
	for _, r := range doc.Results {
		key := r.Workload + "/" + r.Config
		if seen[key] {
			return fmt.Errorf("%s: duplicate result %s", path, key)
		}
		seen[key] = true
		if r.Cycles == 0 {
			return fmt.Errorf("%s: %s ran for zero cycles", path, key)
		}
		if r.Ops == 0 {
			return fmt.Errorf("%s: %s has zero allocator ops", path, key)
		}
		if r.NsPerOp <= 0 || math.IsInf(r.NsPerOp, 0) || math.IsNaN(r.NsPerOp) {
			return fmt.Errorf("%s: %s ns_per_op = %v", path, key, r.NsPerOp)
		}
		if r.Config == experiment.Ours.String() && r.Allocs+r.Frees != r.Ops {
			return fmt.Errorf("%s: %s ops %d != allocs %d + frees %d",
				path, key, r.Ops, r.Allocs, r.Frees)
		}
	}
	for _, w := range benchWorkloads() {
		for _, c := range benchConfigs() {
			if key := w.Name + "/" + c.String(); !seen[key] {
				return fmt.Errorf("%s: missing result %s", path, key)
			}
		}
	}
	fmt.Printf("%s: ok (%d results, %d workloads x %d configs)\n",
		path, len(doc.Results), len(benchWorkloads()), len(benchConfigs()))
	return nil
}
