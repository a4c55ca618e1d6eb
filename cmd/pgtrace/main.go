// Command pgtrace replays an allocation/access trace through the detector —
// the paper's §1.1 "directly on the binaries" path, where a malloc
// interposition layer records what a production server did and the trace is
// checked offline (or the detector runs inline with the same costs).
//
// Usage:
//
//	pgtrace trace.txt            # replay a trace file
//	pgtrace -                    # replay from stdin
//	pgtrace -guards trace.txt    # with overflow guard pages
//	pgtrace -faults SPEC t.txt   # replay under a kernel fault schedule
//	pgtrace -record out.txt t.txt # write the fault-annotated trace
//	pgtrace -report trace.txt    # full forensic reports + cycle attribution
//	pgtrace -ndjson trace.txt    # canonical NDJSON replay result (the exact
//	                             # bytes pgserved streams for this trace)
//	pgtrace -ndjson -spans t.txt # ...plus the span stream and reconciliation
//	                             # trailer (the bytes of /replay?spans=1)
//	pgtrace -report -spans t.txt # ...plus the flight-recorder dump
//	pgtrace -demo                # print a small demonstration trace
//
// A trace written by a fault-injection run carries its schedule in a
// '!faults' header and 'x <call> <errno>' records; replaying such a trace
// re-injects the same schedule and verifies every fault recurs at the same
// position — the reproducibility check. -faults overrides the header;
// -record writes the replay back out with the schedule header and fault
// annotations, producing a self-verifying trace.
//
// Traces may also carry '!policy' (shadow-page reuse / GC schedule),
// '!vabudget' (fresh-VA cap), and '!guards' directives; replay honours all
// of them and -record preserves them, so an adversarial exhaustion trace
// reproduces its recorded run — including missed-detection counts —
// bit-for-bit.
//
// Exit status: 0 clean, 2 when memory errors were detected.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/pageguard"
	"repro/trace"
)

const demoTrace = `# pgtrace demo: a tiny server session
# request 1: allocate, use, free — clean
a 1 128
w 1 0
w 1 64
r 1 0
f 1
# request 2: a retransmit path uses the freed buffer (use-after-free)
a 2 256
w 2 0
f 2
r 2 0
# and a cleanup path frees it again (double free)
f 2
`

func main() {
	guards := flag.Bool("guards", false, "enable overflow guard pages")
	faults := flag.String("faults", "", "kernel fault schedule (overrides the trace's !faults header)")
	record := flag.String("record", "", "write the fault-annotated trace to this file")
	report := flag.Bool("report", false, "print full forensic trap reports and the cycle-attribution profile")
	ndjson := flag.Bool("ndjson", false, "print the canonical NDJSON replay result instead of text")
	spans := flag.Bool("spans", false, "trace spans: with -ndjson append the span stream and reconciliation trailer; with -report print the flight-recorder dump")
	demo := flag.Bool("demo", false, "print a demonstration trace and exit")
	flag.Parse()

	if *demo {
		fmt.Print(demoTrace)
		return
	}
	code, err := run(*guards, *report, *ndjson, *spans, *faults, *record, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgtrace:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(guards, report, ndjson, spans bool, faults, record string, args []string) (int, error) {
	if len(args) != 1 {
		return 0, errors.New("expected exactly one trace file (or \"-\" for stdin)")
	}
	var in io.Reader
	if args[0] == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(args[0])
		if err != nil {
			return 0, err
		}
		defer f.Close()
		in = f
	}
	tf, err := trace.ParseFile(in)
	if err != nil {
		return 0, err
	}
	if faults != "" {
		tf.FaultSpec = faults
	}
	if guards {
		tf.Guards = true
	}

	var extra []pageguard.Option
	if spans {
		extra = append(extra, pageguard.WithSpanTracing())
	}
	if report {
		extra = append(extra, pageguard.WithSiteProfile())
	}
	rep, err := trace.Replay(trace.NewMachine(tf, extra...), tf.Events)
	if err != nil {
		return 0, err
	}

	if ndjson {
		if err := trace.WriteNDJSON(os.Stdout, rep); err != nil {
			return 0, err
		}
		if spans {
			if err := trace.WriteSpansNDJSON(os.Stdout, rep); err != nil {
				return 0, err
			}
		}
		if len(rep.Detections) > 0 {
			return 2, nil
		}
		return 0, nil
	}

	fmt.Printf("replayed %d events: %d allocs, %d frees, %d reads, %d writes",
		rep.Events, rep.Allocs, rep.Frees, rep.Reads, rep.Writes)
	if rep.Forgets > 0 {
		fmt.Printf(", %d forgets", rep.Forgets)
	}
	fmt.Println()
	fmt.Printf("detector: %s\n", rep.Stats)
	for _, f := range rep.InjectedFaults {
		fmt.Printf("injected: %s\n", f)
	}
	for _, d := range rep.Detections {
		fmt.Printf("DETECTED (trace line %d): %v\n", d.Line, d.Err)
	}
	if report {
		for _, d := range rep.Detections {
			if d.Report != nil {
				fmt.Print(d.Report.String())
				if spans && len(d.Report.Flight) > 0 {
					fmt.Printf("flight recorder (last %d events before the trap):\n%s",
						len(d.Report.Flight), pageguard.FormatFlight(d.Report.Flight))
				}
			}
		}
		if rep.Profile != nil && rep.Profile.TotalCycles() > 0 {
			fmt.Printf("cycle attribution (top sites):\n%s", rep.Profile.TopTable(10))
		}
	}
	if spans {
		fmt.Printf("spans: %d recorded, leaf cycles %d, kernel charged %d\n",
			len(rep.Spans), pageguard.LeafSpanCycleSum(rep.Spans), rep.ChargedCycles)
	}

	if record != "" {
		out, err := os.Create(record)
		if err != nil {
			return 0, err
		}
		ann := *tf // preserve every directive, not just the fault schedule
		ann.Events = rep.Annotated
		if err := ann.Format(out); err != nil {
			out.Close()
			return 0, err
		}
		if err := out.Close(); err != nil {
			return 0, err
		}
		fmt.Printf("recorded %d events to %s\n", len(rep.Annotated), record)
	}
	if len(rep.Detections) > 0 {
		return 2, nil
	}
	return 0, nil
}
