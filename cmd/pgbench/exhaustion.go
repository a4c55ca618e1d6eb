package main

import (
	"fmt"
	"math"

	"repro/internal/cliff"
)

// printExhaustionStudy renders the §3.4 exhaustion ladder (cliff workloads
// under compressed fresh-VA budgets) followed by the adversarial-corpus
// chaos soak — the two halves of the 47-bit-cliff study.
func printExhaustionStudy() error {
	s, err := cliff.GenExhaustionStudy(nil)
	if err != nil {
		return err
	}
	fmt.Println(s)
	cs, err := cliff.GenCorpusChaos()
	if err != nil {
		return err
	}
	fmt.Println(cs)
	return nil
}

// exhaustionSection is the document's exhaustion section: the
// machine-readable ladder plus the adversarial corpus's planted ground
// truth, both re-verified at generation time.
type exhaustionSection struct {
	Cells  []exhaustBenchCell  `json:"cells"`
	Corpus []exhaustBenchTrace `json:"corpus"`
}

type exhaustBenchCell struct {
	Workload         string  `json:"workload"`
	Rung             string  `json:"rung"`
	Policy           string  `json:"policy"`
	BudgetPages      uint64  `json:"budget_pages,omitempty"`
	Survived         bool    `json:"survived"`
	ExhaustedAtEvent int     `json:"exhausted_at_event,omitempty"`
	Cycles           uint64  `json:"cycles"`
	GCRuns           uint64  `json:"gc_runs"`
	GCCycleCost      uint64  `json:"gc_cycle_cost_cycles"`
	RecycledPages    uint64  `json:"recycled_pages"`
	PeakPages        uint64  `json:"peak_va_pages"`
	Detected         uint64  `json:"detected"`
	Missed           uint64  `json:"missed"`
	Overhead         float64 `json:"gc_overhead"`
	Triggers         string  `json:"triggers"`
}

type exhaustBenchTrace struct {
	Name        string `json:"name"`
	Dangling    int    `json:"dangling"`
	Overflows   int    `json:"overflows,omitempty"`
	DoubleFrees uint64 `json:"double_frees,omitempty"`
	Missed      uint64 `json:"missed,omitempty"`
}

// genExhaustion regenerates the exhaustion ladder and the corpus soak (both
// self-checking) as the document's exhaustion section.
func genExhaustion() (exhaustionSection, error) {
	var doc exhaustionSection
	s, err := cliff.GenExhaustionStudy(nil)
	if err != nil {
		return doc, err
	}
	// The corpus soak re-verifies the planted ground truth before the
	// expectations are written out as the section's corpus.
	if _, err := cliff.GenCorpusChaos(); err != nil {
		return doc, err
	}
	for _, c := range s.Cells {
		doc.Cells = append(doc.Cells, exhaustBenchCell{
			Workload:         c.Workload,
			Rung:             c.Rung,
			Policy:           c.Policy,
			BudgetPages:      c.BudgetPages,
			Survived:         c.Survived,
			ExhaustedAtEvent: c.ExhaustedAtEvent,
			Cycles:           c.Cycles,
			GCRuns:           c.GCRuns,
			GCCycleCost:      c.GCCycleCost,
			RecycledPages:    c.RecycledPages,
			PeakPages:        c.PeakPages,
			Detected:         c.Detected,
			Missed:           c.Missed,
			Overhead:         c.Overhead(),
			Triggers:         c.Triggers,
		})
	}
	for _, c := range cliff.Corpus() {
		doc.Corpus = append(doc.Corpus, exhaustBenchTrace{
			Name:        c.Name,
			Dangling:    c.Expect.Dangling,
			Overflows:   c.Expect.Overflows,
			DoubleFrees: c.Expect.DoubleFrees,
			Missed:      c.Expect.Missed,
		})
	}
	return doc, nil
}

// checkExhaustion validates the exhaustion section: completeness
// (every cliff workload under every ladder rung, every corpus trace) and
// the ladder's structural claims — the never-reuse rung died at the cliff,
// every mitigation survived, zero misses at the default interval, a real
// missed-detection window under gc@64, and conservation of planted errors.
func checkExhaustion(path string, doc *exhaustionSection) error {
	cells := map[string]map[string]exhaustBenchCell{}
	for _, c := range doc.Cells {
		if cells[c.Workload] == nil {
			cells[c.Workload] = map[string]exhaustBenchCell{}
		}
		if _, dup := cells[c.Workload][c.Rung]; dup {
			return fmt.Errorf("%s: duplicate cell %s/%s", path, c.Workload, c.Rung)
		}
		cells[c.Workload][c.Rung] = c
	}
	rungs := cliff.ExhaustionRungNames()
	for _, w := range cliff.CliffWorkloads() {
		byRung := cells[w.Name]
		if byRung == nil {
			return fmt.Errorf("%s: missing workload %s", path, w.Name)
		}
		for _, r := range rungs {
			if _, ok := byRung[r]; !ok {
				return fmt.Errorf("%s: missing cell %s/%s", path, w.Name, r)
			}
		}
		planted := byRung["never/inf"].Detected
		for _, r := range rungs {
			c := byRung[r]
			if r == "never" {
				if c.Survived {
					return fmt.Errorf("%s: %s/never survived its compressed budget — no cliff", path, w.Name)
				}
				continue
			}
			if !c.Survived {
				return fmt.Errorf("%s: %s/%s died", path, w.Name, r)
			}
			if c.Detected+c.Missed != planted {
				return fmt.Errorf("%s: %s/%s detected %d + missed %d != planted %d",
					path, w.Name, r, c.Detected, c.Missed, planted)
			}
			if c.BudgetPages > 0 && c.PeakPages > c.BudgetPages {
				return fmt.Errorf("%s: %s/%s peak %d exceeds budget %d",
					path, w.Name, r, c.PeakPages, c.BudgetPages)
			}
			if c.Overhead < 0 || c.Overhead >= 1 || math.IsNaN(c.Overhead) {
				return fmt.Errorf("%s: %s/%s gc_overhead = %v", path, w.Name, r, c.Overhead)
			}
		}
		if c := byRung["gc@256"]; c.Missed != 0 || c.GCRuns == 0 {
			return fmt.Errorf("%s: %s/gc@256 missed=%d gcruns=%d, want 0 misses from a live schedule",
				path, w.Name, c.Missed, c.GCRuns)
		}
		if c := byRung["gc@64"]; c.Missed == 0 {
			return fmt.Errorf("%s: %s/gc@64 reports no missed-detection window", path, w.Name)
		}
	}
	seen := map[string]bool{}
	for _, c := range doc.Corpus {
		seen[c.Name] = true
	}
	for _, c := range cliff.Corpus() {
		if !seen[c.Name] {
			return fmt.Errorf("%s: missing corpus trace %s", path, c.Name)
		}
	}
	return nil
}
