package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTracerNestingAndLeafSum(t *testing.T) {
	var clock uint64
	tr := NewTracer(func() uint64 { return clock })

	root := tr.Begin("replay", "")
	op := tr.Begin("op:alloc", "trace:1")
	tr.Leaf("sys:mmap", "trace:1", 0, 1200)
	clock = 1200
	tr.Leaf("sys:mremap", "trace:1", 1200, 1280)
	clock = 1280
	tr.End(op)
	clock = 1300
	tr.End(root)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Name != "replay" || spans[0].Parent != 0 || spans[0].ID != root {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].Parent != root || spans[1].ID != op {
		t.Fatalf("op span not parented under root: %+v", spans[1])
	}
	for _, leaf := range spans[2:] {
		if !leaf.Leaf || leaf.Parent != op {
			t.Fatalf("leaf span not parented under op: %+v", leaf)
		}
	}
	if spans[0].End != 1300 || spans[1].End != 1280 {
		t.Fatalf("end stamps wrong: root=%d op=%d", spans[0].End, spans[1].End)
	}
	if got := LeafCycleSum(spans); got != 1280 {
		t.Fatalf("LeafCycleSum = %d, want 1280", got)
	}
}

func TestTracerNilIsDisabledAndFree(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", "s")
	if id != 0 {
		t.Fatalf("nil tracer Begin returned %d, want 0", id)
	}
	tr.End(id)
	tr.Leaf("sys:mmap", "s", 0, 10)
	if tr.Spans() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}

func TestTracerEndUnknownIDIgnored(t *testing.T) {
	tr := NewTracer(func() uint64 { return 7 })
	id := tr.Begin("a", "")
	tr.End(999) // not open: ignored
	tr.End(0)   // disabled-tracer id: ignored
	tr.End(id)
	if got := tr.Spans()[0].End; got != 7 {
		t.Fatalf("span end = %d, want 7", got)
	}
}

func TestWriteSpansNDJSONDeterministic(t *testing.T) {
	tr := NewTracer(func() uint64 { return 0 })
	id := tr.Begin("op:free", "trace:3")
	tr.Leaf("sys:mprotect", "trace:3", 5, 1245)
	tr.End(id)

	var a, b bytes.Buffer
	if err := WriteSpansNDJSON(&a, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSpansNDJSON(&b, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("span NDJSON not deterministic")
	}
	want := `{"type":"span","id":1,"name":"op:free","site":"trace:3","start":0,"end":0}
{"type":"span","id":2,"parent":1,"name":"sys:mprotect","site":"trace:3","start":5,"end":1245,"leaf":true}
`
	if a.String() != want {
		t.Fatalf("span NDJSON:\n%s\nwant:\n%s", a.String(), want)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 1; i <= 6; i++ {
		f.Record(FlightEvent{Cycles: uint64(i * 100), Kind: FlightAlloc})
	}
	if f.Recorded() != 6 || f.Dropped() != 2 {
		t.Fatalf("recorded=%d dropped=%d, want 6/2", f.Recorded(), f.Dropped())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d, want 4", len(snap))
	}
	for i, ev := range snap {
		wantSeq := uint64(i + 3) // oldest retained is event 3
		if ev.Seq != wantSeq || ev.Cycles != wantSeq*100 {
			t.Fatalf("snapshot[%d] = %+v, want seq %d", i, ev, wantSeq)
		}
	}
	// Snapshot is a copy: mutating it must not touch the ring.
	snap[0].Kind = "mutated"
	if f.Snapshot()[0].Kind != FlightAlloc {
		t.Fatal("snapshot aliases the ring")
	}
}

// TestFlightRecorderReleaseReuse checks that a recorder taken after others
// were released starts empty, whichever one the pool hands back, and that a
// snapshot taken before a release is unchanged by later recording.
func TestFlightRecorderReleaseReuse(t *testing.T) {
	for round := 0; round < 8; round++ {
		f := NewFlightRecorder(4)
		for i := 1; i <= 6; i++ {
			f.Record(FlightEvent{Cycles: uint64(i), Kind: FlightAlloc, Site: "s"})
		}
		snap := f.Snapshot()
		f.Release()
		g := NewFlightRecorder(4)
		if g.Recorded() != 0 || g.Dropped() != 0 || g.Snapshot() != nil {
			t.Fatalf("round %d: reused recorder not empty: recorded=%d", round, g.Recorded())
		}
		g.Record(FlightEvent{Kind: FlightFree})
		if got := g.Snapshot(); len(got) != 1 || got[0].Seq != 1 || got[0].Site != "" {
			t.Fatalf("round %d: first event on a reused recorder = %+v", round, got)
		}
		if snap[0].Seq != 3 || snap[0].Kind != FlightAlloc {
			t.Fatalf("round %d: snapshot changed after release: %+v", round, snap[0])
		}
		g.Release()
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightEvent{Kind: FlightFree})
	if f.Snapshot() != nil || f.Recorded() != 0 || f.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestFormatFlight(t *testing.T) {
	out := FormatFlight([]FlightEvent{
		{Seq: 1, Cycles: 1200, Kind: FlightSyscall, What: "mmap", Site: "main:3", Pages: 2},
		{Seq: 2, Cycles: 4200, Kind: FlightTrap, Obj: 7, Addr: 0x1000},
	})
	for _, want := range []string{"mmap", "pages=2", "@ main:3", "obj=7", "addr=0x1000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
	if FormatFlight(nil) != "  (flight recorder empty)\n" {
		t.Fatal("empty dump wrong")
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r, time.Now())
	var b bytes.Buffer
	if err := r.WritePrometheus(&b, ""); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{"pg_build_info{", "go_version=", "version=", "pg_uptime_seconds"} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
