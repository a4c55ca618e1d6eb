package trace

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/pageguard"
)

func TestParseAndFormatRoundTrip(t *testing.T) {
	src := `
# a comment
a 1 64
w 1 0
r 1 0

a 2 128
f 1
r 1 8
f 2
`
	events, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(events) != 7 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Kind != EvAlloc || events[0].ID != 1 || events[0].Size != 64 {
		t.Fatalf("event 0 = %+v", events[0])
	}

	var buf bytes.Buffer
	if err := Format(&buf, events); err != nil {
		t.Fatalf("Format: %v", err)
	}
	again, err := Parse(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(again) != len(events) {
		t.Fatalf("round trip lost events: %d vs %d", len(again), len(events))
	}
	for i := range events {
		a, b := events[i], again[i]
		if a.Kind != b.Kind || a.ID != b.ID || a.Size != b.Size || a.Off != b.Off {
			t.Fatalf("event %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestParseRejectsFaultSchedule: Parse used to silently drop the '!faults'
// directive, so a faulted trace replayed through that entry point diverged
// from the recorded run. It must now refuse and point callers at ParseFile.
func TestParseRejectsFaultSchedule(t *testing.T) {
	src := `
!faults seed=7;mprotect:after=0,times=2
a 1 64
f 1
`
	_, err := Parse(strings.NewReader(src))
	if err == nil {
		t.Fatal("Parse accepted a trace with a !faults schedule")
	}
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 2 || !strings.Contains(pe.Msg, "ParseFile") {
		t.Fatalf("Parse error = %v, want ParseError at the directive line pointing at ParseFile", err)
	}
	// The same trace through ParseFile keeps the schedule.
	f, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if f.FaultSpec == "" || f.FaultLine != 2 {
		t.Fatalf("ParseFile = %+v, want schedule at line 2", f)
	}
}

// TestParseFileFormatByteIdentity: ParseFile → Format → ParseFile → Format
// must reproduce the formatted trace byte-for-byte, directive and 'x'
// records included — the round-trip property the serving path's parity
// checks build on.
func TestParseFileFormatByteIdentity(t *testing.T) {
	src := `
# produced by a fault-injection run
!faults seed=7;mprotect:after=0,times=2
a 1 64
w 1 0
f 1
x mprotect EAGAIN
x mprotect EAGAIN
a 2 32
r 2 8
f 2
`
	f1, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	var b1 bytes.Buffer
	if err := f1.Format(&b1); err != nil {
		t.Fatalf("Format: %v", err)
	}
	f2, err := ParseFile(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	var b2 bytes.Buffer
	if err := f2.Format(&b2); err != nil {
		t.Fatalf("reformat: %v", err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n%q\nvs\n%q", b1.String(), b2.String())
	}
	if f2.FaultSpec != f1.FaultSpec {
		t.Fatalf("FaultSpec diverged: %q vs %q", f2.FaultSpec, f1.FaultSpec)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x 1 2",
		"a 1",
		"a one 2",
		"f",
		"r 1",
		"w 1 two",
	}
	for _, src := range bad {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
	for _, src := range repeatedDirectiveTraces {
		_, err := ParseFile(strings.NewReader(src))
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 3 || !strings.Contains(pe.Msg, "first on line 1") {
			t.Errorf("ParseFile(%q) error = %v, want a ParseError on line 3 naming line 1", src, err)
		}
	}
}

// repeatedDirectiveTraces repeat one directive on line 3 after its first
// occurrence on line 1. The second line used to win silently: a second
// !policy replayed under the later policy, and a second !faults checked the
// 'x' records against the wrong schedule.
var repeatedDirectiveTraces = []string{
	"!policy never\n# comment\n!policy gc=4\na 1 64\n",
	"!faults seed=1;mremap:every=2\n!policy gc=4\n!faults seed=2\na 1 64\n",
	"!vabudget 64\n\n!vabudget 128\n",
	"!guards\n!sampling rate=4\n!guards\n",
	"!sampling rate=4\n!guards\n!sampling rate=64,seed=7\n",
}

// spaceTraces pin how ParseFile treats whitespace: ASCII lines split on the
// six ASCII spaces ('\v' and '\f' included), and a line holding any byte at
// or above 0x80 keeps the strings.TrimSpace/strings.Fields rule, which also
// splits on Unicode spaces such as U+0085 and U+00A0. want is the accepted
// trace's canonical rendering, or the rejected trace's error text.
var spaceTraces = []struct{ src, want string }{
	{"a\v1\f64\n", "a 1 64\n"},
	{"\f a 1 64 \v\nf\t1\r\n", "a 1 64\nf 1\n"},
	{"\v!guards\f\na 1 64\n", "!guards\na 1 64\n"},
	{"a\v1\v\v\n", "trace line 1: want: a <id> <size>"},
	{"a\u00a01\u00a064\n", "a 1 64\n"},
	{"a 1 64\u0085\nf\u00851\n", "a 1 64\nf 1\n"},
	{"\u0085# comment\n\u00a0\na 1 64\n", "a 1 64\n"},
	{"!guards\u00a0\n", "!guards\n"},
	{"a 1 64\nx\u00a0mprotect\u0085ENOMEM\n", "a 1 64\nx mprotect ENOMEM\n"},
	{"a 1\u00a0\u00a0\n", "trace line 1: want: a <id> <size>"},
	{"a 1 6\u00a04\n", "trace line 1: want: a <id> <size>"},
	{"a 1 64\nw 1 6\xff4\n", `trace line 2: bad number: strconv.ParseUint: parsing "6\xff4": invalid syntax`},
	{"\u00a0q 1\n", `trace line 1: unknown event "q"`},
	{"a\u20281 64\n", "a 1 64\n"},
	{"a 1 ６４\n", `trace line 1: bad number: strconv.ParseUint: parsing "６４": invalid syntax`},
}

// TestParseFileSpaces: every line of spaceTraces is accepted or rejected
// exactly as pinned.
func TestParseFileSpaces(t *testing.T) {
	for _, tc := range spaceTraces {
		var got string
		if f, err := ParseFile(strings.NewReader(tc.src)); err != nil {
			got = err.Error()
		} else {
			var b strings.Builder
			if err := f.Format(&b); err != nil {
				t.Fatal(err)
			}
			got = b.String()
		}
		if got != tc.want {
			t.Errorf("ParseFile(%q) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

// TestParseFilePresizeBounded: a large in-memory body that holds no event
// costs no more than maxPresizedEvents of event slice up front, however
// many lines it has: 1 MiB of blank lines is a line per byte.
func TestParseFilePresizeBounded(t *testing.T) {
	for name, r := range map[string]io.Reader{
		"comments": strings.NewReader(strings.Repeat("# comment\n", 100_000)),
		"blank":    bytes.NewReader(bytes.Repeat([]byte("\n"), 1<<20)),
		"crlf":     bytes.NewReader(bytes.Repeat([]byte("\r\n"), 1<<19)),
		"hashes":   bytes.NewReader(bytes.Repeat([]byte("#\n"), 1<<19)),
	} {
		f, err := ParseFile(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(f.Events) != 0 || cap(f.Events) > maxPresizedEvents {
			t.Fatalf("%s: events len %d cap %d, want 0 and at most %d", name, len(f.Events), cap(f.Events), maxPresizedEvents)
		}
	}
}

// TestParseFileLineLimit: a line of maxLineBytes bytes with its newline
// parses; one byte more fails with bufio.ErrTooLong, from an in-memory
// reader and from a stream alike.
func TestParseFileLineLimit(t *testing.T) {
	fits := "#" + strings.Repeat(" ", maxLineBytes-2) + "\na 1 8\n"
	long := "#" + strings.Repeat(" ", maxLineBytes-1) + "\na 1 8\n"
	readers := map[string]func(string) io.Reader{
		"strings.Reader": func(s string) io.Reader { return strings.NewReader(s) },
		"bytes.Reader":   func(s string) io.Reader { return bytes.NewReader([]byte(s)) },
		"stream":         func(s string) io.Reader { return io.MultiReader(strings.NewReader(s)) },
	}
	for name, mk := range readers {
		f, err := ParseFile(mk(fits))
		if err != nil || len(f.Events) != 1 {
			t.Fatalf("%s: line of %d bytes: %v, want one event", name, maxLineBytes, err)
		}
		if _, err := ParseFile(mk(long)); !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("%s: line of %d bytes: error %v, want %v", name, maxLineBytes+1, err, bufio.ErrTooLong)
		}
	}
}

// TestParseFileCountsWithoutConsuming: the line count that sizes the
// events starts at an in-memory reader's read position and leaves the
// reader there for the parse.
func TestParseFileCountsWithoutConsuming(t *testing.T) {
	src := "a 1 8\nw 1 0\nf 1"
	br := bytes.NewReader([]byte("ignored\n" + src))
	if _, err := br.Seek(int64(len("ignored\n")), io.SeekStart); err != nil {
		t.Fatal(err)
	}
	f, err := ParseFile(br)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Events) != 3 || cap(f.Events) != 3 {
		t.Fatalf("events len %d cap %d, want 3 and 3", len(f.Events), cap(f.Events))
	}
	if f.Events[0].Line != 1 {
		t.Fatalf("first event on line %d, want 1", f.Events[0].Line)
	}
}

// oversizeTraces are allocations no simulated address space can hold. Both
// used to wrap the allocator's page rounding: the first allocated a
// one-word chunk and faulted on the next write as "unmapped", the second
// failed in the remapper with a zero-page mremap.
var oversizeTraces = []string{
	"a 1 18446744073709551615\nw 1 5000\n",
	"a 1 18446744073709547521\nw 1 5000\n",
}

// TestParseRejectsOversizeAlloc: an allocation size the 2^47-byte address
// space cannot hold is a parse error on its own line.
func TestParseRejectsOversizeAlloc(t *testing.T) {
	for _, src := range oversizeTraces {
		_, err := ParseFile(strings.NewReader(src))
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 1 || !strings.Contains(pe.Msg, "address space") {
			t.Errorf("ParseFile(%q) error = %v, want an address-space ParseError on line 1", src, err)
		}
	}
}

// wrapOffsetTraces access an object at an offset no simulated address can
// reach. The first two used to wrap base+off onto the hidden remap header:
// the write overwrote it (the free then failed as "corrupted allocation
// header"), and the read silently returned the header word.
var wrapOffsetTraces = []string{
	"a 1 64\nw 1 18446744073709551608\nf 1\n",
	"a 1 64\nr 1 18446744073709551608\nf 1\n",
	"a 1 64\nr 1 140737488355328\nf 1\n",
}

// TestParseRejectsWrappingOffset: an r/w offset at or past 2^47 is a parse
// error on its own line, while the largest in-range offset still parses.
func TestParseRejectsWrappingOffset(t *testing.T) {
	for _, src := range wrapOffsetTraces {
		_, err := ParseFile(strings.NewReader(src))
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Line != 2 || !strings.Contains(pe.Msg, "address space") {
			t.Errorf("ParseFile(%q) error = %v, want an address-space ParseError on line 2", src, err)
		}
	}
	if _, err := ParseFile(strings.NewReader("a 1 64\nr 1 140737488355327\n")); err != nil {
		t.Errorf("offset 2^47-1 rejected: %v", err)
	}
}

// TestReplayRejectsWrappingAlloc: a size that bypasses the parser (an Event
// built in code) still fails the alloc instead of wrapping to a tiny object.
func TestReplayRejectsWrappingAlloc(t *testing.T) {
	for _, size := range []uint64{math.MaxUint64, math.MaxUint64 - 4094} {
		events := []Event{
			{Kind: EvAlloc, ID: 1, Size: size, Line: 1},
			{Kind: EvWrite, ID: 1, Off: 5000, Line: 2},
		}
		_, err := Replay(NewMachine(&File{Events: events}), events)
		if err == nil || !strings.Contains(err.Error(), "trace line 1:") || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("replay of a %d-byte alloc: error = %v, want an overflow error on line 1", size, err)
		}
	}
}

func TestReplayCleanTrace(t *testing.T) {
	events, err := Parse(strings.NewReader(`
a 1 64
w 1 0
w 1 56
r 1 0
f 1
a 2 32
r 2 8
f 2
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(pageguard.NewMachine(), events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(rep.Detections) != 0 {
		t.Fatalf("clean trace produced detections: %v", rep.Detections)
	}
	if rep.Allocs != 2 || rep.Frees != 2 || rep.Writes != 2 || rep.Reads != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Stats.Allocs != 2 {
		t.Fatalf("stats = %v", rep.Stats)
	}
}

func TestReplayDetectsUAFAndDoubleFree(t *testing.T) {
	events, err := Parse(strings.NewReader(`
a 1 64
f 1
r 1 0
f 1
a 1 64
w 1 0
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(pageguard.NewMachine(), events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(rep.Detections) != 2 {
		t.Fatalf("detections = %v", rep.Detections)
	}
	// The stale read on line 4, the double free on line 5.
	if rep.Detections[0].Line != 4 || rep.Detections[1].Line != 5 {
		t.Fatalf("detection lines = %d, %d", rep.Detections[0].Line, rep.Detections[1].Line)
	}
	// The id was reused for a fresh allocation afterwards, which must
	// work.
	if rep.Allocs != 2 || rep.Writes != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestReplayUnknownID checks that a use of an unknown id fails the replay
// with a *ReplayError on its line: a read, write, free or forget of an id
// never allocated, and a forget of an id whose root an earlier 'z' already
// dropped.
func TestReplayUnknownID(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		line      int
		msg       string
	}{
		{"read", "r 9 0\n", 1, "read of unknown id 9"},
		{"write", "w 9 0\n", 1, "write to unknown id 9"},
		{"free", "f 9\n", 1, "free of unknown id 9"},
		{"forget", "z 9\n", 1, "forget of unknown id 9"},
		{"forget-other-id", "a 1 8\nz 2\n", 2, "forget of unknown id 2"},
		{"second-forget", "a 1 8\nz 1\nz 1\n", 3, "forget of unknown id 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, err := Parse(strings.NewReader(tc.src))
			if err != nil {
				t.Fatal(err)
			}
			_, err = Replay(pageguard.NewMachine(), events)
			var re *ReplayError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want a *ReplayError", err)
			}
			if re.Line != tc.line || re.Msg != tc.msg {
				t.Fatalf("ReplayError = line %d %q, want line %d %q", re.Line, re.Msg, tc.line, tc.msg)
			}
		})
	}
}

// TestReplayRandomTracesDetectExactlyInjectedBugs generates random traces
// with a known set of injected stale accesses and checks the detector
// reports exactly those lines.
func TestReplayRandomTracesDetectExactlyInjectedBugs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var events []Event
		line := 0
		emit := func(ev Event) {
			line++
			ev.Line = line
			events = append(events, ev)
		}

		type obj struct {
			id   uint64
			size uint64
			live bool
		}
		var objs []*obj
		wantLines := map[int]bool{}
		nextID := uint64(1)

		for i := 0; i < 200; i++ {
			switch r.Intn(5) {
			case 0, 1: // alloc
				o := &obj{id: nextID, size: uint64(8 + 8*r.Intn(16)), live: true}
				nextID++
				objs = append(objs, o)
				emit(Event{Kind: EvAlloc, ID: o.id, Size: o.size})
			case 2: // free a live object
				for _, o := range objs {
					if o.live {
						o.live = false
						emit(Event{Kind: EvFree, ID: o.id})
						break
					}
				}
			case 3: // legal access
				for _, o := range objs {
					if o.live {
						off := uint64(r.Intn(int(o.size/8))) * 8
						emit(Event{Kind: EvRead, ID: o.id, Off: off})
						break
					}
				}
			case 4: // injected stale access (sometimes)
				for _, o := range objs {
					if !o.live {
						emit(Event{Kind: EvWrite, ID: o.id, Off: 0})
						wantLines[line] = true
						break
					}
				}
			}
		}

		rep, err := Replay(pageguard.NewMachine(), events)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gotLines := map[int]bool{}
		for _, d := range rep.Detections {
			gotLines[d.Line] = true
		}
		for l := range wantLines {
			if !gotLines[l] {
				t.Errorf("seed %d: injected stale access at line %d not detected", seed, l)
			}
		}
		for l := range gotLines {
			if !wantLines[l] {
				t.Errorf("seed %d: false positive at line %d", seed, l)
			}
		}
	}
}

func TestParseFileFaultDirective(t *testing.T) {
	src := `
!faults seed=7;mprotect:after=0,times=2
a 1 64
f 1
x mprotect EAGAIN
x mprotect EAGAIN
`
	f, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if f.FaultSpec != "seed=7;mprotect:after=0,times=2" {
		t.Fatalf("FaultSpec = %q", f.FaultSpec)
	}
	if len(f.Events) != 4 || f.Events[2].Kind != EvFault || f.Events[2].Call != "mprotect" {
		t.Fatalf("events = %+v", f.Events)
	}

	var buf bytes.Buffer
	if err := f.Format(&buf); err != nil {
		t.Fatalf("Format: %v", err)
	}
	again, err := ParseFile(&buf)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if again.FaultSpec != f.FaultSpec || len(again.Events) != len(f.Events) {
		t.Fatalf("round trip: %+v", again)
	}

	bad := []string{
		"a 1 64\n!faults seed=1;mremap:prob=0.5", // directive after events
		"!faults seed=1;bogus:prob=0.5",          // unparseable schedule
		"!wibble",                                // unknown directive
		"x wibble ENOMEM",                        // unknown syscall
		"x mremap EWOULDBLOCK",                   // unknown errno
	}
	for _, src := range bad {
		if _, err := ParseFile(strings.NewReader(src)); err == nil {
			t.Errorf("ParseFile(%q): expected error", src)
		}
	}
}

// TestReplayFaultedRoundTrip is the satellite acceptance check: a faulted
// run's annotated trace, replayed with the same schedule, reproduces the
// run bit-for-bit — every recorded fault recurs at the same position.
func TestReplayFaultedRoundTrip(t *testing.T) {
	const spec = "seed=7;mprotect:after=0,times=2"
	events, err := Parse(strings.NewReader(`
a 1 64
w 1 0
f 1
a 2 32
f 2
`))
	if err != nil {
		t.Fatal(err)
	}

	m := pageguard.NewMachine(pageguard.WithFaultSchedule(spec))
	rep, err := Replay(m, events)
	if err != nil {
		t.Fatalf("faulted replay: %v", err)
	}
	if len(rep.InjectedFaults) != 2 {
		t.Fatalf("injected = %v, want 2 faults", rep.InjectedFaults)
	}
	// The faults were absorbed by the first free: a w f x x a f.
	kinds := ""
	for _, ev := range rep.Annotated {
		kinds += string(ev.Kind)
	}
	if kinds != "awfxxaf" {
		t.Fatalf("annotated = %q, want awfxxaf", kinds)
	}

	// Write the annotated trace and replay it with the same schedule: the
	// verification pass must accept it.
	var buf bytes.Buffer
	ann := &File{FaultSpec: spec, Events: rep.Annotated}
	if err := ann.Format(&buf); err != nil {
		t.Fatal(err)
	}
	f2, err := ParseFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m2 := pageguard.NewMachine(pageguard.WithFaultSchedule(f2.FaultSpec))
	rep2, err := Replay(m2, f2.Events)
	if err != nil {
		t.Fatalf("verified replay: %v", err)
	}
	if rep2.Stats != rep.Stats {
		t.Fatalf("replay stats diverge:\n%v\nvs\n%v", rep2.Stats, rep.Stats)
	}

	// Without the schedule the recorded faults cannot recur: the
	// verification pass must reject the trace.
	if _, err := Replay(pageguard.NewMachine(), f2.Events); err == nil {
		t.Fatal("replay without fault schedule accepted a faulted trace")
	}
	// A different schedule diverges.
	m3 := pageguard.NewMachine(pageguard.WithFaultSchedule("seed=7;mremap:after=0,times=1"))
	if _, err := Replay(m3, f2.Events); err == nil {
		t.Fatal("replay with wrong schedule accepted the trace")
	}
}
