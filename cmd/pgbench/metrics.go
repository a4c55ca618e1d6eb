package main

import (
	"encoding/json"
	"fmt"
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
