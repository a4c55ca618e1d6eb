// Package trace replays allocation/access traces through the detector.
//
// This is the adoption path the paper's §1.1 sketches for production
// software without source: "our technique can be directly applied on the
// binaries ... we just need to intercept all calls to malloc and free". A
// trace is what such an interposition layer would record; replaying it
// through a pageguard process reproduces the detection behaviour and the
// cost profile of the original run.
//
// Format: one event per line, '#' comments and blank lines ignored.
//
//	a <id> <size>     allocate <size> bytes, name the object <id>; <size>
//	                  must fit the simulated address space (below 2^47)
//	f <id>            free object <id>
//	w <id> <off>      write 8 bytes at byte offset <off> of object <id>
//	r <id> <off>      read 8 bytes at byte offset <off> of object <id>
//	z <id>            forget object <id>: drop the replayer's simulated
//	                  root for it, modelling a program that loses its last
//	                  (stale) copy of the pointer — after this, a reuse
//	                  policy may recycle the object's shadow pages
//	x <call> <errno>  an injected syscall fault absorbed by the previous
//	                  event (recorded by fault-injection runs; verified,
//	                  not executed, on replay)
//
// A trace may carry directives before any event, in this fixed order:
//
//	!faults <spec>    the producing run's fault-injection schedule
//	                  (kernel.ParseSchedule format)
//	!policy <spec>    the shadow-page reuse policy / GC schedule
//	                  (core.ParsePolicySpec format, e.g. "gc=256,pooldestroy")
//	!vabudget <pages> a fresh-VA budget compressing the §3.4 exhaustion
//	                  cliff into the replay
//	!guards           enable overflow guard pages
//	!sampling <spec>  the GWP-ASan-style sampled detection tier
//	                  (core.ParseSamplingSpec format, e.g. "rate=64,seed=7")
//
// Replaying the trace on a machine honouring its directives (NewMachine)
// reproduces the recorded run bit-for-bit; the 'x' events double-check that
// every injected fault recurs at the same position with the same call and
// errno.
//
// Object ids are arbitrary non-negative integers chosen by the trace; ids
// may be reused after a free (real allocators reuse addresses). Accesses to
// freed objects are legal in a trace — that is exactly what the detector is
// for.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

// EventKind discriminates trace events.
type EventKind byte

// Event kinds.
const (
	EvAlloc EventKind = 'a'
	EvFree  EventKind = 'f'
	EvWrite EventKind = 'w'
	EvRead  EventKind = 'r'
	// EvForget drops the replayer's simulated root for an object: the
	// traced program lost its last copy of the pointer, so a conservative
	// GC is allowed to recycle the shadow pages from here on.
	EvForget EventKind = 'z'
	// EvFault records an injected syscall fault absorbed by the preceding
	// event. On replay it is verified against the live injector log
	// rather than executed.
	EvFault EventKind = 'x'
)

// Event is one trace record.
type Event struct {
	Kind EventKind
	// ID names the object within the trace.
	ID uint64
	// Size is the allocation size (EvAlloc only).
	Size uint64
	// Off is the access offset (EvRead/EvWrite only).
	Off uint64
	// Call and Errno name an injected fault's syscall and failure code
	// (EvFault only; kernel.SyscallKind/kernel.Errno string forms).
	Call  string
	Errno string
	// Line is the 1-based source line for diagnostics.
	Line int
}

// File is a complete trace: the optional machine directives plus the event
// stream.
type File struct {
	// FaultSpec is the kernel.ParseSchedule string of the producing run
	// ("" when the run was fault-free).
	FaultSpec string
	// FaultLine is the 1-based source line of the '!faults' directive
	// (0 when FaultSpec is empty).
	FaultLine int
	// PolicySpec is the core.ParsePolicySpec string of the '!policy'
	// directive ("" = the default never-reuse policy).
	PolicySpec string
	// PolicyLine is the source line of '!policy' (0 when absent).
	PolicyLine int
	// VABudgetPages is the '!vabudget' fresh-VA cap (0 = none).
	VABudgetPages uint64
	// VABudgetLine is the source line of '!vabudget' (0 when absent).
	VABudgetLine int
	// Guards reports a '!guards' directive (overflow guard pages).
	Guards bool
	// GuardsLine is the source line of '!guards' (0 when absent).
	GuardsLine int
	// SamplingSpec is the core.ParseSamplingSpec string of the '!sampling'
	// directive ("" = full guarding, no sampled tier).
	SamplingSpec string
	// SamplingLine is the source line of '!sampling' (0 when absent).
	SamplingLine int
	Events       []Event
}

// Directives reports whether the trace carries any machine directive.
func (f *File) Directives() bool {
	return f.FaultSpec != "" || f.PolicySpec != "" || f.VABudgetPages != 0 || f.Guards ||
		f.SamplingSpec != ""
}

// ParseError reports a malformed trace line.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string { return fmt.Sprintf("trace line %d: %s", e.Line, e.Msg) }

// Parse reads a directive-free trace's events. A trace carrying any
// directive is an error: silently dropping it would make the events replay
// on a machine configured differently from the producing run, diverging
// from the recorded behaviour (and, for '!faults', tripping the 'x'
// verification records). Callers that accept directive-carrying traces must
// use ParseFile and honour every File directive field (NewMachine does).
func Parse(r io.Reader) ([]Event, error) {
	f, err := ParseFile(r)
	if err != nil {
		return nil, err
	}
	switch {
	case f.FaultSpec != "":
		return nil, &ParseError{f.FaultLine, "trace carries a !faults schedule; use ParseFile (Parse would drop the schedule and replay the trace wrong)"}
	case f.PolicySpec != "":
		return nil, &ParseError{f.PolicyLine, "trace carries a !policy directive; use ParseFile (Parse would drop the reuse policy and replay the trace wrong)"}
	case f.VABudgetPages != 0:
		return nil, &ParseError{f.VABudgetLine, "trace carries a !vabudget directive; use ParseFile (Parse would drop the VA budget and replay the trace wrong)"}
	case f.Guards:
		return nil, &ParseError{f.GuardsLine, "trace carries a !guards directive; use ParseFile (Parse would drop the guard pages and replay the trace wrong)"}
	case f.SamplingSpec != "":
		return nil, &ParseError{f.SamplingLine, "trace carries a !sampling directive; use ParseFile (Parse would drop the sampling tier and replay the trace wrong)"}
	}
	return f.Events, nil
}

// ParseFile reads a complete trace, including the optional '!faults'
// directive.
func ParseFile(r io.Reader) (*File, error) {
	out := &File{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if spec, ok := strings.CutPrefix(text, "!faults"); ok {
			if len(out.Events) > 0 {
				return nil, &ParseError{line, "!faults directive must precede all events"}
			}
			out.FaultSpec = strings.TrimSpace(spec)
			out.FaultLine = line
			if _, err := kernel.ParseSchedule(out.FaultSpec); err != nil {
				return nil, &ParseError{line, "bad fault schedule: " + err.Error()}
			}
			continue
		}
		if spec, ok := strings.CutPrefix(text, "!policy"); ok {
			if len(out.Events) > 0 {
				return nil, &ParseError{line, "!policy directive must precede all events"}
			}
			out.PolicySpec = strings.TrimSpace(spec)
			out.PolicyLine = line
			if _, _, err := core.ParsePolicySpec(out.PolicySpec); err != nil {
				return nil, &ParseError{line, "bad policy spec: " + err.Error()}
			}
			continue
		}
		if spec, ok := strings.CutPrefix(text, "!vabudget"); ok {
			if len(out.Events) > 0 {
				return nil, &ParseError{line, "!vabudget directive must precede all events"}
			}
			n, err := strconv.ParseUint(strings.TrimSpace(spec), 10, 64)
			if err != nil || n == 0 {
				return nil, &ParseError{line, "want: !vabudget <pages> (positive integer)"}
			}
			out.VABudgetPages = n
			out.VABudgetLine = line
			continue
		}
		if text == "!guards" {
			if len(out.Events) > 0 {
				return nil, &ParseError{line, "!guards directive must precede all events"}
			}
			out.Guards = true
			out.GuardsLine = line
			continue
		}
		if spec, ok := strings.CutPrefix(text, "!sampling"); ok {
			if len(out.Events) > 0 {
				return nil, &ParseError{line, "!sampling directive must precede all events"}
			}
			out.SamplingSpec = strings.TrimSpace(spec)
			out.SamplingLine = line
			if _, err := core.ParseSamplingSpec(out.SamplingSpec); err != nil {
				return nil, &ParseError{line, "bad sampling spec: " + err.Error()}
			}
			continue
		}
		if strings.HasPrefix(text, "!") {
			return nil, &ParseError{line, fmt.Sprintf("unknown directive %q", text)}
		}
		fields := strings.Fields(text)
		ev := Event{Line: line}
		switch fields[0] {
		case "x":
			if len(fields) != 3 {
				return nil, &ParseError{line, "want: x <call> <errno>"}
			}
			if _, err := kernel.ParseSyscallKind(fields[1]); err != nil {
				return nil, &ParseError{line, err.Error()}
			}
			if _, err := kernel.ParseErrno(fields[2]); err != nil {
				return nil, &ParseError{line, err.Error()}
			}
			ev.Kind = EvFault
			ev.Call = fields[1]
			ev.Errno = fields[2]
			out.Events = append(out.Events, ev)
			continue
		case "a":
			if len(fields) != 3 {
				return nil, &ParseError{line, "want: a <id> <size>"}
			}
			ev.Kind = EvAlloc
		case "f":
			if len(fields) != 2 {
				return nil, &ParseError{line, "want: f <id>"}
			}
			ev.Kind = EvFree
		case "z":
			if len(fields) != 2 {
				return nil, &ParseError{line, "want: z <id>"}
			}
			ev.Kind = EvForget
		case "w", "r":
			if len(fields) != 3 {
				return nil, &ParseError{line, "want: r|w <id> <off>"}
			}
			ev.Kind = EvWrite
			if fields[0] == "r" {
				ev.Kind = EvRead
			}
		default:
			return nil, &ParseError{line, fmt.Sprintf("unknown event %q", fields[0])}
		}
		id, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, &ParseError{line, "bad id: " + err.Error()}
		}
		ev.ID = id
		if len(fields) == 3 {
			n, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, &ParseError{line, "bad number: " + err.Error()}
			}
			if ev.Kind == EvAlloc {
				if n >= uint64(vm.UserAddrLimit) {
					return nil, &ParseError{line, fmt.Sprintf(
						"allocation of %d bytes exceeds the %d-byte simulated address space", n, uint64(vm.UserAddrLimit))}
				}
				ev.Size = n
			} else {
				ev.Off = n
			}
		}
		out.Events = append(out.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders events back into the textual format.
func Format(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		var err error
		switch ev.Kind {
		case EvAlloc:
			_, err = fmt.Fprintf(bw, "a %d %d\n", ev.ID, ev.Size)
		case EvFree:
			_, err = fmt.Fprintf(bw, "f %d\n", ev.ID)
		case EvForget:
			_, err = fmt.Fprintf(bw, "z %d\n", ev.ID)
		case EvWrite:
			_, err = fmt.Fprintf(bw, "w %d %d\n", ev.ID, ev.Off)
		case EvRead:
			_, err = fmt.Fprintf(bw, "r %d %d\n", ev.ID, ev.Off)
		case EvFault:
			_, err = fmt.Fprintf(bw, "x %s %s\n", ev.Call, ev.Errno)
		default:
			err = fmt.Errorf("trace: unknown event kind %q", ev.Kind)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Format renders the complete trace, directives included, in the canonical
// order (!faults, !policy, !vabudget, !guards, !sampling).
func (f *File) Format(w io.Writer) error {
	if f.FaultSpec != "" {
		if _, err := fmt.Fprintf(w, "!faults %s\n", f.FaultSpec); err != nil {
			return err
		}
	}
	if f.PolicySpec != "" {
		if _, err := fmt.Fprintf(w, "!policy %s\n", f.PolicySpec); err != nil {
			return err
		}
	}
	if f.VABudgetPages != 0 {
		if _, err := fmt.Fprintf(w, "!vabudget %d\n", f.VABudgetPages); err != nil {
			return err
		}
	}
	if f.Guards {
		if _, err := fmt.Fprintln(w, "!guards"); err != nil {
			return err
		}
	}
	if f.SamplingSpec != "" {
		if _, err := fmt.Fprintf(w, "!sampling %s\n", f.SamplingSpec); err != nil {
			return err
		}
	}
	return Format(w, f.Events)
}
