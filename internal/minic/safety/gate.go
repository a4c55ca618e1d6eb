package safety

import (
	"fmt"
	"sort"
)

// This file is the library half of the soundness gate: machine-checkable
// statements of what a report claims. The experiment harness runs every
// workload and example fully guarded and holds the run to ProvenUseSites;
// WitnessViolations checks the explanation contract — the analysis never
// claims a POSSIBLE use-after-free without an interprocedural free→…→use
// witness — there and on the driver's random programs.

// ProvenUseSites returns the use sites the report classifies as safe and
// nothing else — every finding at the site, of every kind, is PROVEN-SAFE.
// These are the sites the runtime gate asserts can never trap.
func (r *Report) ProvenUseSites() []string {
	worst := map[string]Verdict{}
	for _, f := range r.Findings {
		if f.Verdict > worst[f.Site] {
			worst[f.Site] = f.Verdict
		}
	}
	var out []string
	for site, v := range worst {
		if v == ProvenSafe {
			out = append(out, site)
		}
	}
	sort.Strings(out)
	return out
}

// WitnessViolations returns every POSSIBLE finding whose witness path does
// not have the shape free → call* → use, empty when the obligation holds.
func (r *Report) WitnessViolations() []string {
	var out []string
	for _, f := range r.Findings {
		if f.Verdict != PossibleUAF {
			continue
		}
		if len(f.Witness) < 2 {
			out = append(out, fmt.Sprintf("%s: POSSIBLE finding has no witness", f.Site))
			continue
		}
		if f.Witness[0].Role != "free" || f.Witness[len(f.Witness)-1].Role != "use" {
			out = append(out, fmt.Sprintf("%s: witness runs %s..%s, want free..use",
				f.Site, f.Witness[0].Role, f.Witness[len(f.Witness)-1].Role))
		}
		for _, s := range f.Witness[1 : len(f.Witness)-1] {
			if s.Role != "call" {
				out = append(out, fmt.Sprintf("%s: witness has interior role %q, want call", f.Site, s.Role))
			}
		}
	}
	sort.Strings(out)
	return out
}
