package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/experiment"
	"repro/internal/samplestudy"
	"repro/internal/workload"
)

// benchSchema names the -bench document layout.
const benchSchema = "pgbench/2"

// benchDoc is the -bench export, committed as BENCH_sim.json: every
// simulated-cycle number the repository records outside the tables, in one
// document. It is all simulated cycles, so it is deterministic and diffable
// across machines; TestBenchExportAndCheck holds the committed copy to a
// fresh regeneration byte for byte.
type benchDoc struct {
	Schema  string  `json:"schema"`
	ClockHz float64 `json:"clock_hz"`
	// Results holds the per-workload rows under the LLVM baseline and the
	// paper's configuration.
	Results []benchResult `json:"results"`
	// Exhaustion is the §3.4 ladder and the adversarial corpus.
	Exhaustion exhaustionSection `json:"exhaustion"`
	// Sampling is the sampled tier's detection/overhead trade-off.
	Sampling samplingSection `json:"sampling"`
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

// runBench generates the document, checks it, and writes it to path. A
// document that fails the check is not written.
func runBench(path string, opts experiment.Options) error {
	doc, err := genBench(opts)
	if err != nil {
		return err
	}
	if err := checkBench(path, doc); err != nil {
		return fmt.Errorf("not writing %s: %w", path, err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Print(&samplestudy.Study{Rows: doc.Sampling.Rows})
	fmt.Printf("wrote %s: %d results across %d workloads, %d ladder cells, %d corpus traces, %d sampling rates\n",
		path, len(doc.Results), len(benchWorkloads()), len(doc.Exhaustion.Cells),
		len(doc.Exhaustion.Corpus), len(doc.Sampling.Rows))
	return nil
}

// genBench builds all three sections of the document.
func genBench(opts experiment.Options) (*benchDoc, error) {
	doc := &benchDoc{Schema: benchSchema, ClockHz: experiment.ClockHz}
	var err error
	if doc.Results, err = genResults(opts); err != nil {
		return nil, err
	}
	if doc.Exhaustion, err = genExhaustion(); err != nil {
		return nil, err
	}
	if doc.Sampling, err = genSampling(); err != nil {
		return nil, err
	}
	return doc, nil
}

// genResults sweeps every bench workload under the bench configurations.
func genResults(opts experiment.Options) ([]benchResult, error) {
	var results []benchResult
	for _, w := range benchWorkloads() {
		// Run the shadow configuration first: only it counts allocator
		// operations, and both rows share the op count (same program).
		ours, err := experiment.Run(w, experiment.Ours, opts)
		if err != nil {
			return nil, fmt.Errorf("bench %s/%s: %w", w.Name, experiment.Ours, err)
		}
		ops := ours.Allocs + ours.Frees
		for _, c := range benchConfigs() {
			m := ours
			if c != experiment.Ours {
				m, err = experiment.Run(w, c, opts)
				if err != nil {
					return nil, fmt.Errorf("bench %s/%s: %w", w.Name, c, err)
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
			results = append(results, r)
		}
	}
	return results, nil
}

// checkBench validates a document: its schema, the one clock_hz every
// section's cycles are counted in, and then each section. path only labels
// the errors.
func checkBench(path string, doc *benchDoc) error {
	if doc.Schema != benchSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, benchSchema)
	}
	if doc.ClockHz != experiment.ClockHz {
		return fmt.Errorf("%s: clock_hz %g, want %g", path, doc.ClockHz, experiment.ClockHz)
	}
	if err := checkResults(path, doc.Results); err != nil {
		return err
	}
	if err := checkExhaustion(path, &doc.Exhaustion); err != nil {
		return err
	}
	return checkSampling(path, &doc.Sampling)
}

// checkResults validates the results section: completeness (every bench
// workload under every bench configuration) and result sanity.
func checkResults(path string, results []benchResult) error {
	seen := map[string]bool{}
	for _, r := range results {
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
	return nil
}
