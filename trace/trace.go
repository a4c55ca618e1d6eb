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
//	w <id> <off>      write 8 bytes at byte offset <off> of object <id>;
//	                  <off> must lie inside the simulated address space
//	                  (below 2^47), so it cannot wrap below the object
//	r <id> <off>      read 8 bytes at byte offset <off> of object <id>
//	                  (same bound)
//	z <id>            forget object <id>: drop the replayer's simulated
//	                  root for it, modelling a program that loses its last
//	                  (stale) copy of the pointer — after this, a reuse
//	                  policy may recycle the object's shadow pages
//	x <call> <errno>  an injected syscall fault absorbed by the previous
//	                  event (recorded by fault-injection runs; verified,
//	                  not executed, on replay)
//
// A trace may carry directives before any event, each at most once, in
// this fixed order:
//
//	!faults <spec>    the producing run's fault-injection schedule
//	                  (kernel.ParseSchedule format)
//	!policy <spec>    the shadow-page reuse policy and its clock
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
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

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

// maxPresizedEvents bounds the event slice ParseFile allocates before it
// has seen an event.
const maxPresizedEvents = 4096

// maxLineBytes bounds one trace line; a longer one fails the parse with
// bufio.ErrTooLong.
const maxLineBytes = 1 << 20

// ParseFile reads a complete trace, including its optional directives.
// Each directive may appear at most once.
func ParseFile(r io.Reader) (*File, error) {
	out := &File{}
	scr := parseScratches.Get().(*parseScratch)
	defer parseScratches.Put(scr)
	if n, ok := countLines(r, &scr.lines); ok {
		// An in-memory body (bytes.Reader, strings.Reader) sizes the event
		// slice up front, one event per line, instead of growing it
		// through a dozen copies. The cap keeps a large body that holds
		// few events, such as one of blank lines, from costing a large
		// slice.
		out.Events = make([]Event, 0, min(n, maxPresizedEvents))
	}
	// The scanner reads through the pooled buffer, and allocates a larger
	// one only for a line that does not fit in it.
	sc := bufio.NewScanner(r)
	sc.Buffer(scr.buf[:], maxLineBytes)
	line := 0
	// placed checks a directive line: it must precede every event, and it
	// must not repeat the directive of line first (0 when none), whose
	// setting it would silently override.
	placed := func(name string, first int) error {
		if len(out.Events) > 0 {
			return &ParseError{line, name + " directive must precede all events"}
		}
		if first != 0 {
			return &ParseError{line, fmt.Sprintf("repeated %s directive (first on line %d)", name, first)}
		}
		return nil
	}
	// fields is reused across lines: an event line costs no allocation.
	fields := make([][]byte, 0, 4)
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 || b[0] == '#' {
			continue
		}
		if b[0] != '!' {
			fields = appendFields(fields[:0], b)
			ev, err := parseEvent(fields, line)
			if err != nil {
				return nil, err
			}
			out.Events = append(out.Events, ev)
			continue
		}
		text := string(b)
		if spec, ok := strings.CutPrefix(text, "!faults"); ok {
			if err := placed("!faults", out.FaultLine); err != nil {
				return nil, err
			}
			out.FaultSpec = strings.TrimSpace(spec)
			out.FaultLine = line
			if _, err := kernel.ParseSchedule(out.FaultSpec); err != nil {
				return nil, &ParseError{line, "bad fault schedule: " + err.Error()}
			}
			continue
		}
		if spec, ok := strings.CutPrefix(text, "!policy"); ok {
			if err := placed("!policy", out.PolicyLine); err != nil {
				return nil, err
			}
			out.PolicySpec = strings.TrimSpace(spec)
			out.PolicyLine = line
			if _, err := core.ParsePolicySpec(out.PolicySpec); err != nil {
				return nil, &ParseError{line, "bad policy spec: " + err.Error()}
			}
			continue
		}
		if spec, ok := strings.CutPrefix(text, "!vabudget"); ok {
			if err := placed("!vabudget", out.VABudgetLine); err != nil {
				return nil, err
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
			if err := placed("!guards", out.GuardsLine); err != nil {
				return nil, err
			}
			out.Guards = true
			out.GuardsLine = line
			continue
		}
		if spec, ok := strings.CutPrefix(text, "!sampling"); ok {
			if err := placed("!sampling", out.SamplingLine); err != nil {
				return nil, err
			}
			out.SamplingSpec = strings.TrimSpace(spec)
			out.SamplingLine = line
			if _, err := core.ParseSamplingSpec(out.SamplingSpec); err != nil {
				return nil, &ParseError{line, "bad sampling spec: " + err.Error()}
			}
			continue
		}
		return nil, &ParseError{line, fmt.Sprintf("unknown directive %q", text)}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseScratch is what a parse needs only while it runs: the scanner's
// buffer and the line counter. ParseFile pools it, so a parse allocates
// its File and events and nothing else.
type parseScratch struct {
	lines lineCounter
	buf   [4096]byte
}

var parseScratches = sync.Pool{New: func() any { return new(parseScratch) }}

// countLines counts the lines of an in-memory reader into c without
// consuming it: a bytes.Reader or strings.Reader hands its unread bytes to
// WriteTo without copying them, and seeks back after. Any other reader is
// left alone and reports false.
func countLines(r io.Reader, c *lineCounter) (int, bool) {
	type inMemory interface {
		Len() int
		io.WriterTo
		io.Seeker
	}
	m, ok := r.(inMemory)
	if !ok || m.Len() == 0 {
		return 0, false
	}
	*c = lineCounter{}
	n, err := m.WriteTo(c)
	if _, serr := m.Seek(-n, io.SeekCurrent); serr != nil || err != nil {
		return 0, false
	}
	if !c.ended {
		c.lines++ // a last line with no newline
	}
	return c.lines, true
}

var newline = []byte{'\n'}

// lineCounter is the io.Writer countLines hands a body to.
type lineCounter struct {
	lines int
	ended bool // the last byte written was a newline
}

func (c *lineCounter) Write(p []byte) (int, error) {
	if len(p) > 0 {
		c.lines += bytes.Count(p, newline)
		c.ended = p[len(p)-1] == '\n'
	}
	return len(p), nil
}

func (c *lineCounter) WriteString(s string) (int, error) {
	if len(s) > 0 {
		c.lines += strings.Count(s, "\n")
		c.ended = s[len(s)-1] == '\n'
	}
	return len(s), nil
}

// parseEvent decodes one event line already split into fields (at least
// one). Only an 'x' event allocates: its call and errno names.
func parseEvent(fields [][]byte, line int) (Event, error) {
	ev := Event{Line: line}
	switch string(fields[0]) {
	case "x":
		if len(fields) != 3 {
			return ev, &ParseError{line, "want: x <call> <errno>"}
		}
		ev.Kind = EvFault
		ev.Call = string(fields[1])
		ev.Errno = string(fields[2])
		if _, err := kernel.ParseSyscallKind(ev.Call); err != nil {
			return ev, &ParseError{line, err.Error()}
		}
		if _, err := kernel.ParseErrno(ev.Errno); err != nil {
			return ev, &ParseError{line, err.Error()}
		}
		return ev, nil
	case "a":
		if len(fields) != 3 {
			return ev, &ParseError{line, "want: a <id> <size>"}
		}
		ev.Kind = EvAlloc
	case "f":
		if len(fields) != 2 {
			return ev, &ParseError{line, "want: f <id>"}
		}
		ev.Kind = EvFree
	case "z":
		if len(fields) != 2 {
			return ev, &ParseError{line, "want: z <id>"}
		}
		ev.Kind = EvForget
	case "w", "r":
		if len(fields) != 3 {
			return ev, &ParseError{line, "want: r|w <id> <off>"}
		}
		ev.Kind = EvWrite
		if fields[0][0] == 'r' {
			ev.Kind = EvRead
		}
	default:
		return ev, &ParseError{line, fmt.Sprintf("unknown event %q", fields[0])}
	}
	id, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return ev, &ParseError{line, "bad id: " + err.Error()}
	}
	ev.ID = id
	if len(fields) == 3 {
		n, err := strconv.ParseUint(string(fields[2]), 10, 64)
		if err != nil {
			return ev, &ParseError{line, "bad number: " + err.Error()}
		}
		if ev.Kind == EvAlloc {
			if n >= uint64(vm.UserAddrLimit) {
				return ev, &ParseError{line, fmt.Sprintf(
					"allocation of %d bytes exceeds the %d-byte simulated address space", n, uint64(vm.UserAddrLimit))}
			}
			ev.Size = n
		} else {
			// base+off would wrap: a huge offset lands below the
			// object, on its hidden remap header.
			if n >= uint64(vm.UserAddrLimit) {
				return ev, &ParseError{line, fmt.Sprintf(
					"offset %d lies outside the %d-byte simulated address space", n, uint64(vm.UserAddrLimit))}
			}
			ev.Off = n
		}
	}
	return ev, nil
}

// asciiSpace marks the bytes below 0x80 that unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields is strings.Fields over bytes without the copies: it appends
// the fields of b to dst as subslices of b, splitting at every rune
// unicode.IsSpace accepts (U+0085 and U+00A0 as well as the ASCII spaces).
// An invalid byte decodes as utf8.RuneError, which is no space.
func appendFields(dst [][]byte, b []byte) [][]byte {
	start := -1
	for i := 0; i < len(b); {
		space, n := false, 1
		if c := b[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, n = utf8.DecodeRune(b[i:])
			space = unicode.IsSpace(r)
		}
		if !space {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, b[start:i])
			start = -1
		}
		i += n
	}
	if start >= 0 {
		dst = append(dst, b[start:])
	}
	return dst
}

// Format renders events back into the textual format.
func Format(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	// buf holds one line at a time; it is reused, so no event allocates.
	buf := make([]byte, 0, 64)
	for _, ev := range events {
		buf = buf[:0]
		switch ev.Kind {
		case EvAlloc, EvWrite, EvRead:
			n := ev.Off
			if ev.Kind == EvAlloc {
				n = ev.Size
			}
			buf = append(buf, byte(ev.Kind), ' ')
			buf = strconv.AppendUint(buf, ev.ID, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendUint(buf, n, 10)
		case EvFree, EvForget:
			buf = append(buf, byte(ev.Kind), ' ')
			buf = strconv.AppendUint(buf, ev.ID, 10)
		case EvFault:
			buf = append(buf, "x "...)
			buf = append(buf, ev.Call...)
			buf = append(buf, ' ')
			buf = append(buf, ev.Errno...)
		default:
			return fmt.Errorf("trace: unknown event kind %q", ev.Kind)
		}
		if _, err := bw.Write(append(buf, '\n')); err != nil {
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
