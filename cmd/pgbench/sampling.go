package main

import (
	"fmt"

	"repro/internal/samplestudy"
)

// samplingSection is the document's sampling section: the sampled
// always-on tier's detection-probability/overhead trade-off over the
// adversarial corpus.
type samplingSection struct {
	// Seed is the site-selection seed every row replayed under.
	Seed uint64 `json:"seed"`
	// Rows is the study, one row per swept sampling rate, in sweep order.
	Rows []samplestudy.Row `json:"rows"`
}

// genSampling generates the sampling study.
func genSampling() (samplingSection, error) {
	study, err := samplestudy.Gen()
	if err != nil {
		return samplingSection{}, err
	}
	return samplingSection{Seed: samplestudy.Seed, Rows: study.Rows}, nil
}

// checkSampling validates the sampling section: every swept rate present in
// order, ledger conservation per row, the unguarded baseline detecting
// nothing for free, detection probability non-increasing in the rate, and
// the 1-in-64 tier's overhead under 10% of full guarding — the acceptance
// criterion that makes the sampled tier deployable always-on.
func checkSampling(path string, doc *samplingSection) error {
	if len(doc.Rows) != len(samplestudy.Rates) {
		return fmt.Errorf("%s: %d rows, want one per swept rate (%d)", path, len(doc.Rows), len(samplestudy.Rates))
	}
	var full, r64 *samplestudy.Row
	for i := range doc.Rows {
		r := &doc.Rows[i]
		if r.Rate != samplestudy.Rates[i] {
			return fmt.Errorf("%s: row %d has rate %d, want %d (sweep order)", path, i, r.Rate, samplestudy.Rates[i])
		}
		if r.StaleOps == 0 || r.StaleOps != doc.Rows[0].StaleOps {
			return fmt.Errorf("%s: rate=%d stale ops %d diverge from baseline %d", path, r.Rate, r.StaleOps, doc.Rows[0].StaleOps)
		}
		if r.Detected+r.Missed != r.StaleOps {
			return fmt.Errorf("%s: rate=%d ledger %d+%d != %d stale ops", path, r.Rate, r.Detected, r.Missed, r.StaleOps)
		}
		switch r.Rate {
		case 0:
			if r.Detected != 0 || r.OverheadCycles != 0 {
				return fmt.Errorf("%s: unguarded row detected %d / charged %d overhead, want zero both",
					path, r.Detected, r.OverheadCycles)
			}
		case 1:
			full = r
		case 64:
			r64 = r
		}
		if i > 0 && r.Rate > 1 && r.DetectionProb > doc.Rows[i-1].DetectionProb {
			return fmt.Errorf("%s: P(detect) rises from rate=%d (%.3f) to rate=%d (%.3f)",
				path, doc.Rows[i-1].Rate, doc.Rows[i-1].DetectionProb, r.Rate, r.DetectionProb)
		}
	}
	if full == nil || r64 == nil {
		return fmt.Errorf("%s: sweep missing the rate=1 or rate=64 row", path)
	}
	if full.OverheadCycles == 0 || full.DetectionProb == 0 {
		return fmt.Errorf("%s: full-guarding row is inert (overhead %d, P %.3f)", path, full.OverheadCycles, full.DetectionProb)
	}
	if r64.OverheadShare >= 0.10 {
		return fmt.Errorf("%s: 1/64 overhead share %.4f breaches the <0.10 acceptance bound", path, r64.OverheadShare)
	}
	return nil
}
