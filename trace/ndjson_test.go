package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim/kernel"
	"repro/pageguard"
)

// TestWriteNDJSONDeterministic: the NDJSON rendering is the serving path's
// parity currency, so two replays of the same trace must produce identical
// bytes, every line must be valid JSON, and the line order must be
// replay header, faults, detections, stats trailer.
func TestWriteNDJSONDeterministic(t *testing.T) {
	const spec = "seed=7;mprotect:after=0,times=2"
	src := `
a 1 64
w 1 0
f 1
r 1 0
f 1
`
	render := func() []byte {
		t.Helper()
		f, err := ParseFile(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		m := pageguard.NewMachine(pageguard.WithFaultSchedule(spec))
		rep, err := Replay(m, f.Events)
		if err != nil {
			t.Fatalf("Replay: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, rep); err != nil {
			t.Fatalf("WriteNDJSON: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("NDJSON not deterministic:\n%s\nvs\n%s", a, b)
	}

	lines := strings.Split(strings.TrimSuffix(string(a), "\n"), "\n")
	var kinds []string
	for _, line := range lines {
		var obj struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		kinds = append(kinds, obj.Type)
	}
	if kinds[0] != "replay" || kinds[len(kinds)-1] != "stats" {
		t.Fatalf("line kinds = %v, want replay first and stats last", kinds)
	}
	var faults, detections int
	for _, k := range kinds[1 : len(kinds)-1] {
		switch k {
		case "fault":
			faults++
		case "detection":
			detections++
		default:
			t.Fatalf("unexpected line kind %q in %v", k, kinds)
		}
	}
	// The schedule injects 2 faults at the first free; the stale read and
	// double free are 2 detections.
	if faults != 2 || detections != 2 {
		t.Fatalf("faults = %d, detections = %d, want 2 and 2", faults, detections)
	}

	// Detection lines carry full forensic reports that parse back.
	for _, line := range lines {
		if !strings.Contains(line, `"type":"detection"`) {
			continue
		}
		var det struct {
			Line   int                   `json:"line"`
			Error  string                `json:"error"`
			Report *pageguard.TrapReport `json:"report"`
		}
		if err := json.Unmarshal([]byte(line), &det); err != nil {
			t.Fatal(err)
		}
		if det.Line == 0 || det.Error == "" {
			t.Fatalf("detection line missing provenance: %s", line)
		}
	}
}

// referenceBody renders rep through the encoding/json reference encoder.
func referenceBody(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := referenceNDJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkAppendMatchesReference appends rep after prefix and requires the
// prefix kept and the rest byte-identical to the reference encoder.
func checkAppendMatchesReference(t *testing.T, prefix string, rep *Report) {
	t.Helper()
	got, err := AppendNDJSON([]byte(prefix), rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:len(prefix)]) != prefix {
		t.Fatalf("AppendNDJSON overwrote its destination's %d bytes", len(prefix))
	}
	if want := referenceBody(t, rep); !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendNDJSON diverged from encoding/json:\n%s\nwant:\n%s", got[len(prefix):], want)
	}
}

// TestAppendNDJSONCoversEveryField sets every field of a TrapReport and its
// flight events, and every Stats counter, to a non-zero value and compares
// the render with the reference encoder. A field added to one of those
// structs and not to AppendNDJSON fails here; a field of a kind this test
// cannot fill fails too, so the test is extended with it.
func TestAppendNDJSONCoversEveryField(t *testing.T) {
	fill := func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.String:
				f.SetString(v.Type().Field(i).Name)
			case reflect.Int, reflect.Int64:
				f.SetInt(-int64(i + 1))
			case reflect.Uint64:
				f.SetUint(uint64(i + 1))
			case reflect.Slice:
				// Flight: filled below.
			default:
				t.Fatalf("%s.%s: kind %s not covered", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	var r pageguard.TrapReport
	fill(reflect.ValueOf(&r).Elem())
	r.Flight = make([]pageguard.FlightEvent, 2)
	for i := range r.Flight {
		fill(reflect.ValueOf(&r.Flight[i]).Elem())
		r.Flight[i].Seq += uint64(i)
	}
	rep := &Report{Events: 1, Allocs: 2, Frees: 3, Reads: 4, Writes: 5, Forgets: 6,
		Detections: []Detection{{Line: 7, Err: errors.New("dangling"), Report: &r}}}
	fill(reflect.ValueOf(&rep.Stats).Elem())
	checkAppendMatchesReference(t, "", rep)
	checkBodySegments(t, rep)
}

// checkBodySegments renders rep as a Body, into one that already held
// bytes, and requires every segment to lie inside the literal, the literal
// to be carried once and in order, every other segment to refer only to
// bytes written before it, and the flattened and written body to equal
// AppendNDJSON's bytes.
func checkBodySegments(t *testing.T, rep *Report) Body {
	t.Helper()
	var b Body
	b.Write([]byte("stale bytes RenderNDJSON must replace"))
	if err := RenderNDJSON(&b, rep); err != nil {
		t.Fatal(err)
	}
	written := 0 // literal bytes the segments so far carried
	for i, s := range b.Segs {
		switch {
		case s.Len <= 0 || s.Off < 0 || s.Off+s.Len > len(b.Literal):
			t.Fatalf("segment %d %+v lies outside the %d-byte literal", i, s, len(b.Literal))
		case s.Off == written:
			written += s.Len
		case s.Off+s.Len > written:
			t.Fatalf("segment %d %+v refers to bytes not yet written (%d written)", i, s, written)
		}
	}
	if written != len(b.Literal) {
		t.Fatalf("segments carry %d of the literal's %d bytes", written, len(b.Literal))
	}
	want, err := AppendNDJSON(nil, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.AppendTo(nil); !bytes.Equal(got, want) {
		t.Fatalf("flattened segments diverged from AppendNDJSON:\n%s\nwant:\n%s", got, want)
	}
	var out bytes.Buffer
	if n, err := b.WriteTo(&out); err != nil || n != int64(len(want)) || !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("WriteTo wrote %d bytes (err %v), want AppendNDJSON's %d", n, err, len(want))
	}
	return b
}

// TestRenderReferencesRepeatedFlight: in a replay-detect-shaped body, most
// bytes are flight events repeated from earlier trap reports, and the
// render keeps them as references. The literal is about a fifth of the
// body, and a run of repeated events is one segment, not one per event.
func TestRenderReferencesRepeatedFlight(t *testing.T) {
	b := checkBodySegments(t, detectBenchReport(t))
	body := len(b.AppendTo(nil))
	if len(b.Literal)*4 > body {
		t.Errorf("literal is %d of %d body bytes, want under a quarter", len(b.Literal), body)
	}
	if len(b.Segs) > 100 {
		t.Errorf("%d segments for 10 trap reports, want at most 100", len(b.Segs))
	}
}

// fuzzReport builds a Report from the fuzzer's strings and integers. shape
// is consumed a byte at a time (zero once exhausted) to pick the number of
// faults, detections and flight events and which value fills each field, so
// the fuzzer reaches omitted zero fields, nil errors and reports, negative
// offsets, and flight events that share a Seq but differ in a field.
func fuzzReport(s1, s2 string, n int64, u uint64, shape []byte) *Report {
	next := func() byte {
		if len(shape) == 0 {
			return 0
		}
		b := shape[0]
		shape = shape[1:]
		return b
	}
	strs := []string{"", s1, s2, "trace:12"}
	str := func() string { return strs[next()%4] }
	nums := []uint64{0, u, uint64(n), math.MaxUint64, 1}
	num := func() uint64 { return nums[next()%5] }
	rep := &Report{Events: int(n), Allocs: int(u), Frees: int(num()), Reads: int(num()),
		Writes: int(num()), Forgets: int(num())}
	for k := next() % 3; k > 0; k-- {
		rep.InjectedFaults = append(rep.InjectedFaults,
			pageguard.FaultEvent{Call: kernel.SyscallKind(next()), Errno: kernel.Errno(next())})
	}
	for k := next() % 4; k > 0; k-- {
		d := Detection{Line: int(num())}
		if next()%4 != 0 {
			d.Err = errors.New(str())
		}
		if next()%4 != 0 {
			r := &pageguard.TrapReport{Kind: obs.TrapKind(str()), UseSite: str(),
				AllocSite: str(), FreeSite: str(), ObjectSeq: num(), ObjectSize: num(),
				Pool: str(), PoolID: num(), State: str(), Offset: int64(num()),
				PageOffset: num(), FaultAddr: num(), ShadowAddr: num(), CanonAddr: num(),
				FreeCycles: num(), TrapCycles: num(), CyclesSinceFree: num(),
				AllocLine: int(num()), FreeLine: int(num())}
			base := num()
			for j := next() % 8; j > 0; j-- {
				r.Flight = append(r.Flight, pageguard.FlightEvent{Seq: base + uint64(next()%8),
					Cycles: num(), Kind: str(), What: str(), Site: str(),
					Obj: num(), Addr: num(), Pages: num()})
			}
			d.Report = r
		}
		rep.Detections = append(rep.Detections, d)
	}
	st := reflect.ValueOf(&rep.Stats).Elem()
	for i := 0; i < st.NumField(); i++ {
		st.Field(i).SetUint(num())
	}
	return rep
}

// FuzzAppendNDJSON is the differential check of the hand-written encoder:
// on any report it appends exactly what the encoding/json reference
// encoder writes, after whatever its destination already held, and its
// segmented form is well made and flattens to those bytes.
func FuzzAppendNDJSON(f *testing.F) {
	repeats := []byte{0, 0, 0, 0, 0, 3, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
		1, 1, 1, 1, 1, 7, 3, 1, 1, 1, 1, 1, 1, 1, 3, 2, 2, 2, 2, 2, 2, 3, 1, 1, 1, 1, 1, 1}
	f.Add("<>&", `"\`, int64(-8), uint64(3), repeats)
	f.Add("<", ">", int64(2), uint64(5), repeats)
	f.Add("&", "\u2028\u2029", int64(9), uint64(1), repeats)
	f.Add(`"`, `\`, int64(1), uint64(2), repeats)
	f.Add(" ", " ", int64(-1), uint64(math.MaxUint64), repeats)
	f.Add("\xff\xfe", "ok\xc3", int64(0), uint64(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add("\x00\x01\b\f\t\n\r\x1f", "\x7f", int64(4096), uint64(1<<63), repeats)
	f.Add("", "", int64(0), uint64(0), []byte{})
	f.Add("", "", int64(0), uint64(0), bytes.Repeat([]byte{0, 3, 1}, 40))
	f.Add("a", "b", int64(-1<<63), uint64(math.MaxUint64), bytes.Repeat([]byte{2, 3, 1, 5, 7, 4}, 30))
	// A flight whose second event repeats its first: the reference must not
	// take along the '[' written before the first encoding.
	f.Add("0", "0", int64(67), uint64(29), []byte("000001001000000000000000000002"))
	// A reference that ends where the literal does: the literal bytes after
	// it start a segment of their own.
	f.Add("0", "0", int64(67), uint64(29), []byte("00000100100000000000000000001700000000121119921211199"))
	f.Fuzz(func(t *testing.T, s1, s2 string, n int64, u uint64, shape []byte) {
		rep := fuzzReport(s1, s2, n, u, shape)
		checkAppendMatchesReference(t, s1, rep)
		checkBodySegments(t, rep)
	})
}

// TestWriteNDJSONConcurrent: WriteNDJSON renders through a pooled buffer,
// so concurrent renders of different reports must each write exactly their
// own body. Run under -race.
func TestWriteNDJSONConcurrent(t *testing.T) {
	var reps []*Report
	for _, src := range []string{detectBenchTrace(), pageBenchTrace(40), "a 1 64\nf 1\nr 1 0\nf 1\n"} {
		f, err := ParseFile(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(NewMachine(f), f.Events)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	const rounds = 8
	errs := make(chan error, rounds*len(reps))
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for _, rep := range reps {
			wg.Add(1)
			go func(rep *Report) {
				defer wg.Done()
				want, err := AppendNDJSON(nil, rep)
				if err != nil {
					errs <- err
					return
				}
				var got bytes.Buffer
				if err := WriteNDJSON(&got, rep); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got.Bytes(), want) {
					errs <- errors.New("WriteNDJSON body differs from AppendNDJSON")
				}
			}(rep)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
