package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"repro/pageguard"
)

// The canonical machine-readable rendering of a replay: one JSON object per
// line (NDJSON), deterministic byte-for-byte for a given trace and machine
// configuration. pgtrace -ndjson and pgserved both emit exactly this form,
// so an HTTP replay body can be diffed against the offline replay — the
// serving path's bit-for-bit parity check.
//
// Line order: one "replay" header, every injected fault in injection order,
// every detection in trace order, one final "stats" trailer.
//
// The lines are appended by hand, field by field, in the order and with the
// omitempty rules of the JSON tags on pageguard.TrapReport and
// pageguard.FlightEvent; the output is byte-identical to encoding/json's
// encoding of those structs. testdata/golden holds bodies rendered by
// encoding/json, and FuzzAppendNDJSON compares this encoder with an
// encoding/json reference on arbitrary reports. Strings that are not plain
// printable ASCII free of JSON and HTML metacharacters go through
// json.Marshal, so escaping is exactly the standard library's.
//
// Consecutive trap reports carry overlapping flight-recorder windows, so
// most of a detection-heavy body is the same flight events over again. A
// body is therefore rendered as a Body: each event is encoded once, and a
// later event equal to one already written is a segment referring back to
// that first encoding. The body is kept in that form from the render
// through pgserved's cache to the socket.

// Body is a rendered replay body in segmented form: Literal holds every
// byte the body writes once, and the body is the concatenation, in order,
// of the Literal ranges Segs names. A segment either carries Literal's next
// bytes or refers back to bytes an earlier segment carried: a flight event
// already in the body, or a run of them with the commas between.
type Body struct {
	Literal []byte
	Segs    []Segment
}

// Segment is the range Literal[Off:Off+Len] of a Body.
type Segment struct{ Off, Len int }

// appendSegment appends the range [off, off+n) to segs, growing the last
// segment instead when the range continues it.
func appendSegment(segs []Segment, off, n int) []Segment {
	if last := len(segs) - 1; last >= 0 && segs[last].Off+segs[last].Len == off {
		segs[last].Len += n
		return segs
	}
	return append(segs, Segment{Off: off, Len: n})
}

// bytes returns the Literal range s names.
func (b *Body) bytes(s Segment) []byte { return b.Literal[s.Off : s.Off+s.Len] }

// AppendTo appends the body's bytes to dst and returns the extended buffer.
func (b *Body) AppendTo(dst []byte) []byte {
	for _, s := range b.Segs {
		dst = append(dst, b.bytes(s)...)
	}
	return dst
}

// Write appends p to the body as literal bytes, so a Body is an io.Writer
// a stream can be appended to after a render.
func (b *Body) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	b.Segs = appendSegment(b.Segs, len(b.Literal), len(p))
	b.Literal = append(b.Literal, p...)
	return len(p), nil
}

// WriteTo writes the body to w. A one-segment body is a single Write; the
// segments of any other are coalesced through a pooled 64 KB buffer, since
// an http.ResponseWriter sends each large Write as its own chunk.
func (b *Body) WriteTo(w io.Writer) (int64, error) {
	if len(b.Segs) == 1 {
		n, err := w.Write(b.bytes(b.Segs[0]))
		return int64(n), err
	}
	bw := writers.Get().(*bufio.Writer)
	bw.Reset(w)
	var n int64
	var err error
	for _, s := range b.Segs {
		var m int
		m, err = bw.Write(b.bytes(s))
		n += int64(m)
		if err != nil {
			break
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil)
	writers.Put(bw)
	return n, err
}

// Footprint is the bytes b's buffers hold: what keeping b, in a cache or a
// pool, keeps alive. A segment is counted as two 8-byte ints.
func (b *Body) Footprint() int { return cap(b.Literal) + 16*cap(b.Segs) }

// Clone returns an exact-size copy of the body, sharing nothing with it.
func (b *Body) Clone() Body {
	return Body{Literal: bytes.Clone(b.Literal), Segs: slices.Clone(b.Segs)}
}

// writers recycles WriteTo's coalescing buffers.
var writers = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// WriteNDJSON renders rep in the canonical NDJSON form. It holds the
// body's literal and segments, never the whole body.
func WriteNDJSON(w io.Writer, rep *Report) error {
	b := bodies.Get().(*Body)
	err := RenderNDJSON(b, rep)
	if err == nil {
		_, err = b.WriteTo(w)
	}
	putBody(b)
	return err
}

// AppendNDJSON appends rep's canonical NDJSON form to dst and returns the
// extended buffer: RenderNDJSON's body, flattened.
func AppendNDJSON(dst []byte, rep *Report) ([]byte, error) {
	b := bodies.Get().(*Body)
	err := RenderNDJSON(b, rep)
	dst = b.AppendTo(dst)
	putBody(b)
	return dst, err
}

// bodies recycles the render buffers of WriteNDJSON and AppendNDJSON, so a
// render does not regrow its buffers from empty. A body whose buffers grew
// past maxScratch bytes is left to the collector rather than kept alive by
// the pool.
var bodies = sync.Pool{New: func() any { return new(Body) }}

const maxScratch = 1 << 20

func putBody(b *Body) {
	if b.Footprint() <= maxScratch {
		bodies.Put(b)
	}
}

// RenderNDJSON renders rep's canonical NDJSON form into b, replacing what
// b held and reusing its buffers.
func RenderNDJSON(b *Body, rep *Report) error {
	e := ndjsonEncoder{b: b.Literal[:0], segs: b.Segs[:0]}
	e.indexFlight(rep)

	e.b = append(e.b, `{"type":"replay","events":`...)
	e.b = strconv.AppendInt(e.b, int64(rep.Events), 10)
	e.intField("allocs", rep.Allocs)
	e.intField("frees", rep.Frees)
	e.intField("reads", rep.Reads)
	e.intField("writes", rep.Writes)
	if rep.Forgets != 0 {
		e.intField("forgets", rep.Forgets)
	}
	e.b = append(e.b, "}\n"...)

	for _, f := range rep.InjectedFaults {
		e.b = append(e.b, `{"type":"fault","call":`...)
		e.str(f.Call.String())
		e.b = append(e.b, `,"errno":`...)
		e.str(f.Errno.String())
		e.b = append(e.b, "}\n"...)
	}

	for i := range rep.Detections {
		d := &rep.Detections[i]
		e.b = append(e.b, `{"type":"detection","line":`...)
		e.b = strconv.AppendInt(e.b, int64(d.Line), 10)
		e.b = append(e.b, `,"error":`...)
		e.errorMessage(d.Err)
		if d.Report != nil {
			e.b = append(e.b, `,"report":`...)
			e.report(d.Report)
		}
		e.b = append(e.b, "}\n"...)
	}

	s := &rep.Stats
	e.b = append(e.b, `{"type":"stats","allocs":`...)
	e.b = strconv.AppendUint(e.b, s.Allocs, 10)
	e.uintField("frees", s.Frees)
	e.uintField("dangling_detected", s.DanglingDetected)
	e.optUintField("double_frees", s.DoubleFrees)
	e.uintField("cycles", s.Cycles)
	e.uintField("syscalls", s.Syscalls)
	e.uintField("virtual_pages", s.VirtualPages)
	e.uintField("injected_faults", s.InjectedFaults)
	e.uintField("transient_retries", s.TransientRetries)
	e.uintField("degraded_allocs", s.DegradedAllocs)
	e.uintField("degraded_frees", s.DegradedFrees)
	e.uintField("unprotected_frees", s.UnprotectedFrees)
	e.optUintField("recycled_pages", s.RecycledPages)
	e.optUintField("gc_runs", s.GCRuns)
	e.optUintField("gc_cycle_cycles", s.GCCycleCost)
	e.optUintField("missed_detections", s.MissedDetections)
	e.b = append(e.b, "}\n"...)
	e.flush()
	b.Literal, b.Segs = e.b, e.segs
	e.release()
	return e.err
}

// ndjsonEncoder is one body's append state.
type ndjsonEncoder struct {
	b    []byte    // the body's literal
	segs []Segment // the body's segments, up to lit
	lit  int       // where the literal bytes no segment carries yet begin
	err  error     // the first json.Marshal failure

	// first is the Seq of the body's first flight event; written[seq-first]
	// locates the encoding of the first event written with that Seq.
	first   uint64
	written []flightBytes
	table   *[]flightBytes // the flightTables entry written lies in
}

// flightBytes is where one flight event's encoding lies in the body.
type flightBytes struct {
	ev         *pageguard.FlightEvent // nil until an event with this Seq is written
	start, end int
}

// indexFlight sizes the written table: one slot per Seq from the first
// event's to the highest, but never more slots than the body has events.
// Events outside the table are encoded without reuse.
func (e *ndjsonEncoder) indexFlight(rep *Report) {
	total, span, started := 0, uint64(0), false
	for _, d := range rep.Detections {
		if d.Report == nil {
			continue
		}
		for i := range d.Report.Flight {
			seq := d.Report.Flight[i].Seq
			if !started {
				e.first, started = seq, true
			}
			if seq >= e.first && seq-e.first >= span {
				span = seq - e.first + 1
			}
			total++
		}
	}
	if span > uint64(total) {
		span = uint64(total)
	}
	if span > 0 {
		e.table = flightTables.Get().(*[]flightBytes)
		if uint64(cap(*e.table)) < span {
			*e.table = make([]flightBytes, span)
		}
		e.written = (*e.table)[:span]
	}
}

// flightTables recycles the written tables of renders. A table is taken
// from the pool for one render and handed back emptied by release, so it
// never keeps a report alive; one that grew past maxFlightTable slots is
// left to the collector.
var flightTables = sync.Pool{New: func() any { return new([]flightBytes) }}

const maxFlightTable = 1 << 16

// release empties the written table and returns it to flightTables.
func (e *ndjsonEncoder) release() {
	if e.table == nil || cap(*e.table) > maxFlightTable {
		return
	}
	clear(e.written)
	flightTables.Put(e.table)
}

// ref appends a segment referring to the literal bytes b[off:end], written
// earlier. A reference that continues the last segment grows it, so a run
// of events first encoded one after another is one segment.
func (e *ndjsonEncoder) ref(off, end int) {
	e.flush()
	e.segs = appendSegment(e.segs, off, end-off)
}

// flush ends the pending literal bytes with a segment carrying them. It
// never grows a reference that ends where they begin, so every segment
// either carries new bytes or refers back to old ones.
func (e *ndjsonEncoder) flush() {
	if e.lit < len(e.b) {
		e.segs = append(e.segs, Segment{Off: e.lit, Len: len(e.b) - e.lit})
		e.lit = len(e.b)
	}
}

// report appends r as a JSON object.
func (e *ndjsonEncoder) report(r *pageguard.TrapReport) {
	e.b = append(e.b, `{"kind":`...)
	e.str(string(r.Kind))
	e.strField("use_site", r.UseSite)
	e.strField("alloc_site", r.AllocSite)
	e.strField("free_site", r.FreeSite)
	e.uintField("object_seq", r.ObjectSeq)
	e.uintField("object_size", r.ObjectSize)
	if r.Pool != "" {
		e.strField("pool", r.Pool)
	}
	e.optUintField("pool_id", r.PoolID)
	e.strField("state", r.State)
	e.b = append(e.b, `,"offset":`...)
	e.b = strconv.AppendInt(e.b, r.Offset, 10)
	e.uintField("page_offset", r.PageOffset)
	e.uintField("fault_addr", r.FaultAddr)
	e.uintField("shadow_addr", r.ShadowAddr)
	e.uintField("canon_addr", r.CanonAddr)
	e.uintField("free_cycles", r.FreeCycles)
	e.uintField("trap_cycles", r.TrapCycles)
	e.uintField("cycles_since_free", r.CyclesSinceFree)
	if r.AllocLine != 0 {
		e.intField("alloc_line", r.AllocLine)
	}
	if r.FreeLine != 0 {
		e.intField("free_line", r.FreeLine)
	}
	if len(r.Flight) > 0 {
		e.b = append(e.b, `,"flight":[`...)
		for i := range r.Flight {
			e.flightEvent(&r.Flight[i], i > 0)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// flightEvent appends ev, after a comma when comma is set. An event equal
// to one already in the body becomes a reference to that event's first
// encoding, and takes the comma written before that encoding along when
// there is one.
func (e *ndjsonEncoder) flightEvent(ev *pageguard.FlightEvent, comma bool) {
	var slot *flightBytes
	if i := ev.Seq - e.first; ev.Seq >= e.first && i < uint64(len(e.written)) {
		slot = &e.written[i]
		if slot.ev != nil && *slot.ev == *ev {
			start := slot.start
			if comma {
				if e.b[start-1] == ',' {
					start--
				} else {
					e.b = append(e.b, ',')
				}
			}
			e.ref(start, slot.end)
			return
		}
	}
	if comma {
		e.b = append(e.b, ',')
	}
	start := len(e.b)
	e.b = append(e.b, `{"seq":`...)
	e.b = strconv.AppendUint(e.b, ev.Seq, 10)
	e.uintField("cycles", ev.Cycles)
	e.strField("kind", ev.Kind)
	if ev.What != "" {
		e.strField("what", ev.What)
	}
	if ev.Site != "" {
		e.strField("site", ev.Site)
	}
	e.optUintField("obj", ev.Obj)
	e.optUintField("addr", ev.Addr)
	e.optUintField("pages", ev.Pages)
	e.b = append(e.b, '}')
	if slot != nil && slot.ev == nil {
		*slot = flightBytes{ev: ev, start: start, end: len(e.b)}
	}
}

// intField appends ,"name":v.
func (e *ndjsonEncoder) intField(name string, v int) {
	e.key(name)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

// uintField appends ,"name":v.
func (e *ndjsonEncoder) uintField(name string, v uint64) {
	e.key(name)
	e.b = strconv.AppendUint(e.b, v, 10)
}

// optUintField appends ,"name":v unless v is zero (omitempty).
func (e *ndjsonEncoder) optUintField(name string, v uint64) {
	if v != 0 {
		e.uintField(name, v)
	}
}

// strField appends ,"name":s.
func (e *ndjsonEncoder) strField(name, s string) {
	e.key(name)
	e.str(s)
}

// errorMessage appends err's message as a JSON string. A detector error
// appends its message in place; any other goes through fmt, as before.
func (e *ndjsonEncoder) errorMessage(err error) {
	ae, ok := err.(interface{ AppendError([]byte) []byte })
	if !ok {
		e.str(fmt.Sprint(err))
		return
	}
	start := len(e.b)
	e.b = ae.AppendError(append(e.b, '"'))
	for _, c := range e.b[start+1:] {
		if !plainJSON(c) {
			msg := string(e.b[start+1:])
			e.b = e.b[:start]
			e.str(msg)
			return
		}
	}
	e.b = append(e.b, '"')
}

// key appends ,"name": — names are the fixed ASCII tags above.
func (e *ndjsonEncoder) key(name string) {
	e.b = append(e.b, ',', '"')
	e.b = append(e.b, name...)
	e.b = append(e.b, '"', ':')
}

// str appends s as a JSON string: copied between quotes when every byte is
// printable ASCII other than " \ < > &, else encoded by json.Marshal.
func (e *ndjsonEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plainJSON(s[i]) {
			q, err := json.Marshal(s)
			if err != nil && e.err == nil {
				e.err = err
			}
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// plainJSON reports whether c stands for itself inside a JSON string as
// json.Marshal writes one: printable ASCII other than " \ < > &.
func plainJSON(c byte) bool {
	return c >= 0x20 && c <= 0x7e && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}
