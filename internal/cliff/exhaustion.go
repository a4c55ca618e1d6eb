package cliff

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/pageguard"
	"repro/trace"
)

// The exhaustion-pressure ladder: each cliff workload replays under a
// compressed fresh-VA budget with every §3.4 mitigation in turn — never
// (which must die at the cliff), reuse-on-exhaustion, scheduled
// conservative GC at three intervals, a watermark trigger, and manual
// tuning — while the ground-truth ledger settles exactly which stale uses
// each schedule sacrificed.
//
// The budget is self-calibrating: two unbudgeted probe rungs measure the
// never-reuse demand V and the recycling demand R, and the ladder runs at
// budget (V+R)/2 — above what a recycling schedule needs, below what
// never-reuse needs, so the cliff is real in both directions.

// ExhaustionRung is one policy configuration on the pressure ladder.
type ExhaustionRung struct {
	Name string
	// Policy is a core.ParsePolicySpec string.
	Policy string
	// Budget applies the workload's compressed fresh-VA budget.
	Budget bool
	// WantDeath marks the rung that must fall off the cliff.
	WantDeath bool
	// WantMisses constrains the ledger: +1 demands misses, -1 demands
	// zero, 0 leaves the rung unconstrained.
	WantMisses int
}

// exhaustionRungs builds the ladder. watermark is the fresh-page growth
// delta for the watermark rung (derived from the budget so the trigger
// fires before the cliff).
func exhaustionRungs(watermark uint64) []ExhaustionRung {
	return []ExhaustionRung{
		// Unbudgeted probes: the two demands that bracket the budget.
		{Name: "never/inf", Policy: "never", WantMisses: -1},
		{Name: "gc@256/inf", Policy: "gc=256", WantMisses: -1},
		// The cliff itself: never-reuse under the compressed budget.
		{Name: "never", Policy: "never", Budget: true, WantDeath: true},
		// §3.4 first mitigation: recycle only when the VA runs out.
		{Name: "on-exhaustion", Policy: "on-exhaustion", Budget: true, WantMisses: -1},
		// §3.4 second mitigation at three intervals. Aggressive recycling
		// opens a missed-detection window; the default interval must not.
		{Name: "gc@64", Policy: "gc=64", Budget: true, WantMisses: +1},
		{Name: "gc@256", Policy: "gc=256", Budget: true, WantMisses: -1},
		{Name: "gc@1024", Policy: "gc=1024", Budget: true, WantMisses: -1},
		// Watermark trigger: the interval alone would never fire, but VA
		// growth pulls cycles in before the budget is hit.
		{Name: "gc@1024+wm", Policy: fmt.Sprintf("gc=1024,watermark=%d", watermark), Budget: true, WantMisses: -1},
		// §3.4 third mitigation: the same aggressive interval as gc@64,
		// gated by the manual-tuning knobs until enough freed pages have
		// accumulated — which postpones every cycle past the probe window
		// and closes the missed-detection window that gc@64 opens.
		{Name: "gc@64+tuned", Policy: "gc=64,minfreed=256,cooldown=256", Budget: true, WantMisses: -1},
	}
}

// ExhaustionRungNames returns the ladder's rung names in order — the
// completeness contract for the exhaustion section of `pgbench -bench`.
func ExhaustionRungNames() []string {
	rungs := exhaustionRungs(0)
	names := make([]string, len(rungs))
	for i, r := range rungs {
		names[i] = r.Name
	}
	return names
}

// ExhaustionCell is one (workload, rung) ladder result.
type ExhaustionCell struct {
	Workload string
	Rung     string
	Policy   string
	// BudgetPages is the injected fresh-VA cap (0 = unbudgeted).
	BudgetPages uint64
	// Survived reports whether the replay ran to completion;
	// ExhaustedAtEvent is the 0-based index of the killing event when not.
	Survived         bool
	ExhaustedAtEvent int
	// Cycles is the replay's total simulated cycles.
	Cycles uint64
	// GCRuns / GCCycleCost / RecycledPages are the collector's toll:
	// cycles run, scan cycles charged through the kernel, pages recycled
	// (scheduled GC and exhaustion reclaim together).
	GCRuns        uint64
	GCCycleCost   uint64
	RecycledPages uint64
	// PeakPages is the fresh-VA watermark (reservations are monotone, so
	// the final reading is the peak).
	PeakPages uint64
	// Detected / Missed is the ground-truth ledger's verdict: stale uses
	// the detector caught vs. silently lost to recycling.
	Detected uint64
	Missed   uint64
	// Triggers summarises the cycle log, e.g. "2×interval 1×watermark".
	Triggers string
}

// Overhead is the fraction of total cycles spent in conservative-GC scans.
func (c ExhaustionCell) Overhead() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.GCCycleCost) / float64(c.Cycles)
}

// ExhaustionStudy is the rendered ladder.
type ExhaustionStudy struct {
	Cells []ExhaustionCell
}

// GenExhaustionStudy runs the ladder over the named cliff workloads
// (nil = all), enforcing the ladder invariants:
//
//   - the never-reuse rung dies at the compressed budget; every mitigation
//     rung survives it;
//   - every surviving rung's health check is clean, its GC cost matches
//     the kernel-charged total and the cycle log exactly, and its VA peak
//     respects the budget;
//   - detected + missed stale uses is conserved across rungs (recycling
//     can silence a planted error but never un-plant it);
//   - the ledger settles 0 misses at the default interval, and > 0 under
//     gc@64 — the missed-detection window is real, measurable, and closed
//     by the manual-tuning knobs.
func GenExhaustionStudy(names []string) (*ExhaustionStudy, error) {
	var ws []TraceWorkload
	if names == nil {
		ws = CliffWorkloads()
	} else {
		for _, n := range names {
			w, err := CliffByName(n)
			if err != nil {
				return nil, err
			}
			ws = append(ws, w)
		}
	}
	study := &ExhaustionStudy{}
	for _, w := range ws {
		cells, err := runExhaustionLadder(w)
		if err != nil {
			return nil, err
		}
		study.Cells = append(study.Cells, cells...)
	}
	return study, nil
}

// runExhaustionLadder runs every rung of one workload's ladder.
func runExhaustionLadder(w TraceWorkload) ([]ExhaustionCell, error) {
	events := w.Generate()

	// Calibrate: never-reuse demand V and recycling demand R.
	base, err := runExhaustionRung(w.Name, ExhaustionRung{Name: "calib-never", Policy: "never"}, events, 0)
	if err != nil {
		return nil, err
	}
	recyc, err := runExhaustionRung(w.Name, ExhaustionRung{Name: "calib-gc", Policy: "gc=256"}, events, 0)
	if err != nil {
		return nil, err
	}
	if !base.Survived || !recyc.Survived {
		return nil, fmt.Errorf("exhaustion: %s: unbudgeted calibration rung died", w.Name)
	}
	budget := (base.PeakPages + recyc.PeakPages) / 2
	if recyc.PeakPages >= budget || budget >= base.PeakPages {
		return nil, fmt.Errorf("exhaustion: %s: no cliff between recycling demand %d and never-reuse demand %d",
			w.Name, recyc.PeakPages, base.PeakPages)
	}
	// Watermark: fire when fresh reservations grow half a budget past the
	// last cycle — before the cliff, after the probe window.
	watermark := budget / 2

	var cells []ExhaustionCell
	groundTruth := base.Detected // every planted stale use, all caught by never-reuse
	if base.Missed != 0 {
		return nil, fmt.Errorf("exhaustion: %s: never-reuse missed %d stale uses", w.Name, base.Missed)
	}
	for _, r := range exhaustionRungs(watermark) {
		b := uint64(0)
		if r.Budget {
			b = budget
		}
		cell, err := runExhaustionRung(w.Name, r, events, b)
		if err != nil {
			return nil, err
		}
		if r.WantDeath {
			if cell.Survived {
				return nil, fmt.Errorf("exhaustion: %s/%s: survived a budget of %d pages against a demand of %d",
					w.Name, r.Name, budget, base.PeakPages)
			}
		} else {
			if !cell.Survived {
				return nil, fmt.Errorf("exhaustion: %s/%s: died at event %d under budget %d",
					w.Name, r.Name, cell.ExhaustedAtEvent, budget)
			}
			// Conservation of planted errors: recycling may move a stale
			// use from detected to missed, never lose it altogether.
			if cell.Detected+cell.Missed != groundTruth {
				return nil, fmt.Errorf("exhaustion: %s/%s: detected %d + missed %d != planted %d",
					w.Name, r.Name, cell.Detected, cell.Missed, groundTruth)
			}
		}
		switch {
		case r.WantMisses > 0 && cell.Missed == 0:
			return nil, fmt.Errorf("exhaustion: %s/%s: expected a missed-detection window, ledger settled 0", w.Name, r.Name)
		case r.WantMisses < 0 && cell.Missed != 0:
			return nil, fmt.Errorf("exhaustion: %s/%s: ledger settled %d misses, want 0", w.Name, r.Name, cell.Missed)
		}
		cells = append(cells, cell)
	}
	return cells, nil
}

// runExhaustionRung replays one rung and cross-checks its accounting.
func runExhaustionRung(wname string, r ExhaustionRung, events []trace.Event, budget uint64) (ExhaustionCell, error) {
	cell := ExhaustionCell{Workload: wname, Rung: r.Name, Policy: r.Policy, BudgetPages: budget}
	tf := &trace.File{PolicySpec: r.Policy, VABudgetPages: budget, Events: events}
	rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
	if err != nil {
		if !errors.Is(err, pageguard.ErrAddressSpaceExhausted) {
			return cell, fmt.Errorf("exhaustion: %s/%s: %w", wname, r.Name, err)
		}
		cell.ExhaustedAtEvent = rep.Events
		cell.Cycles = rep.Stats.Cycles
		return cell, nil
	}
	cell.Survived = true
	cell.Cycles = rep.Stats.Cycles
	cell.GCRuns = rep.Stats.GCRuns
	cell.GCCycleCost = rep.Stats.GCCycleCost
	cell.RecycledPages = rep.Stats.RecycledPages
	cell.PeakPages = rep.Stats.VirtualPages
	cell.Detected = rep.Stats.DanglingDetected
	cell.Missed = rep.Stats.MissedDetections
	cell.Triggers = summarizeTriggers(rep.GCLog)

	// A rung whose bookkeeping is broken has no business in the table.
	if rep.Health != nil {
		return cell, fmt.Errorf("exhaustion: %s/%s: health: %w", wname, r.Name, rep.Health)
	}
	// The scan cost must reconcile exactly against both the cycle log and
	// the kernel's single charge point — no free work, no double charge.
	var logSum uint64
	for _, c := range rep.GCLog {
		logSum += c.Cycles
	}
	if logSum != cell.GCCycleCost {
		return cell, fmt.Errorf("exhaustion: %s/%s: cycle log sums to %d, stats charge %d",
			wname, r.Name, logSum, cell.GCCycleCost)
	}
	if kc := rep.Metrics.Counter("pg_gc_charged_cycles_total"); kc != cell.GCCycleCost {
		return cell, fmt.Errorf("exhaustion: %s/%s: kernel charged %d GC cycles, stats say %d",
			wname, r.Name, kc, cell.GCCycleCost)
	}
	if budget > 0 && cell.PeakPages > budget {
		return cell, fmt.Errorf("exhaustion: %s/%s: peak %d pages exceeds budget %d",
			wname, r.Name, cell.PeakPages, budget)
	}
	return cell, nil
}

// summarizeTriggers renders a cycle log as "2×interval 1×watermark".
func summarizeTriggers(log []pageguard.GCCycle) string {
	if len(log) == 0 {
		return "-"
	}
	counts := map[core.GCTrigger]int{}
	for _, c := range log {
		counts[c.Trigger]++
	}
	var parts []string
	for _, t := range []core.GCTrigger{GCTriggerInterval, GCTriggerWatermark, GCTriggerPoolDestroy, GCTriggerManual} {
		if n := counts[t]; n > 0 {
			parts = append(parts, fmt.Sprintf("%dx%s", n, t))
		}
	}
	return strings.Join(parts, " ")
}

// Trigger kinds re-exported for the summary's deterministic ordering.
const (
	GCTriggerManual      = core.GCTriggerManual
	GCTriggerInterval    = core.GCTriggerInterval
	GCTriggerWatermark   = core.GCTriggerWatermark
	GCTriggerPoolDestroy = core.GCTriggerPoolDestroy
)

// String renders the ladder as a table.
func (s *ExhaustionStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Exhaustion ladder: cliff workloads under compressed fresh-VA budgets (§3.4)\n")
	fmt.Fprintf(&b, "%-14s %-12s %7s %9s %7s %9s %9s %7s %7s %8s  %s\n",
		"workload", "rung", "budget", "peak", "gcruns", "gccost", "recycled", "detect", "missed", "overhead", "triggers")
	for _, c := range s.Cells {
		budget := "inf"
		if c.BudgetPages > 0 {
			budget = fmt.Sprintf("%d", c.BudgetPages)
		}
		if !c.Survived {
			fmt.Fprintf(&b, "%-14s %-12s %7s %9s  DIED at event %d: address space exhausted\n",
				c.Workload, c.Rung, budget, "-", c.ExhaustedAtEvent)
			continue
		}
		fmt.Fprintf(&b, "%-14s %-12s %7s %9d %7d %9d %9d %7d %7d %7.3f%%  %s\n",
			c.Workload, c.Rung, budget, c.PeakPages, c.GCRuns, c.GCCycleCost,
			c.RecycledPages, c.Detected, c.Missed, 100*c.Overhead(), c.Triggers)
	}
	return b.String()
}
