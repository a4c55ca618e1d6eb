package trace

import (
	"encoding/json"
	"fmt"
	"io"
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
// most of a detection-heavy body is the same flight events over again. Each
// event is encoded once per body; a later event equal to one already
// written copies its bytes.

// WriteNDJSON renders rep in the canonical NDJSON form.
func WriteNDJSON(w io.Writer, rep *Report) error {
	p := scratch.Get().(*[]byte)
	b, err := AppendNDJSON((*p)[:0], rep)
	if err == nil {
		_, err = w.Write(b)
	}
	if cap(b) <= maxScratch {
		*p = b[:0]
		scratch.Put(p)
	}
	return err
}

// scratch recycles WriteNDJSON's render buffers, so a render does not
// regrow its buffer from empty. A buffer that grew past maxScratch is left
// to the collector rather than kept alive by the pool.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

const maxScratch = 1 << 20

// AppendNDJSON appends rep's canonical NDJSON form to dst and returns the
// extended buffer.
func AppendNDJSON(dst []byte, rep *Report) ([]byte, error) {
	e := ndjsonEncoder{b: dst}
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
		e.str(fmt.Sprint(d.Err))
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
	return e.b, e.err
}

// ndjsonEncoder is one body's append state.
type ndjsonEncoder struct {
	b   []byte
	err error // the first json.Marshal failure

	// first is the Seq of the body's first flight event; written[seq-first]
	// locates the encoding of the first event written with that Seq.
	first   uint64
	written []flightBytes
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
		e.written = make([]flightBytes, span)
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
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.flightEvent(&r.Flight[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// flightEvent appends ev, copying the bytes of an equal event already in
// the body when there is one.
func (e *ndjsonEncoder) flightEvent(ev *pageguard.FlightEvent) {
	var slot *flightBytes
	if i := ev.Seq - e.first; ev.Seq >= e.first && i < uint64(len(e.written)) {
		slot = &e.written[i]
		if slot.ev != nil && *slot.ev == *ev {
			e.b = append(e.b, e.b[slot.start:slot.end]...)
			return
		}
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
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
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
