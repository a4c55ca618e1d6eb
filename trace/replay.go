package trace

import (
	"errors"
	"fmt"
	"strconv"

	"repro/pageguard"
)

// Report summarizes a replay.
type Report struct {
	// Events is the number of events executed (including the faulting
	// one, if any).
	Events int
	// Allocs, Frees, Reads, Writes count successful operations.
	Allocs, Frees, Reads, Writes int
	// Forgets counts executed 'z' events (dropped simulated roots).
	Forgets int
	// StaleOps counts ground-truth stale uses the replayer settled with
	// the ledger: every touch of an id the trace had already freed. The
	// ledger's Detected+Missed+Inconsistent must sum to exactly this.
	StaleOps int
	// Detections collects every dangling/overflow report, in order.
	// Replay continues past detections (a monitoring deployment logs and
	// keeps serving), mirroring how the run-time handler could resume.
	Detections []Detection
	// InjectedFaults is the injector's log for the replay (empty without a
	// fault schedule on the machine).
	InjectedFaults []pageguard.FaultEvent
	// Annotated is the event stream with 'x' fault records interleaved
	// after the operations that absorbed them — writing it (with the
	// schedule in the header) produces a self-verifying trace of this run.
	// Until the first injected fault it shares the array of Replay's events
	// argument (a fault-free replay copies nothing); treat it as read-only.
	Annotated []Event
	// Stats is the process's final detector statistics.
	Stats pageguard.Stats
	// Profile is the replay's per-site cycle attribution (sites are
	// "trace:N" labels, one per trace line), or nil unless the machine was
	// built with pageguard.WithSiteProfile.
	Profile *pageguard.SiteProfile
	// Metrics is the process's final metrics snapshot (every pg_* series
	// the kernel and detector expose). Snapshots from concurrent replays
	// merge with Add — that is how a serving deployment aggregates
	// per-request processes into fleet metrics.
	Metrics pageguard.MetricsSnapshot
	// GCLog is the collector's per-cycle accounting log (scheduled and
	// manual cycles, in execution order); summing its Cycles fields must
	// equal Stats.GCCycleCost.
	GCLog []pageguard.GCCycle
	// Health is the first bookkeeping-invariant violation observed — by
	// the scheduler's post-cycle audit or the end-of-replay health check —
	// or nil. A replay that finishes with a non-nil Health produced
	// numbers that cannot be trusted.
	Health error
	// Ledger is the detector's ground-truth missed-detection meter after
	// the replay.
	Ledger pageguard.MissLedger
	// Spans is the replay's cycle-exact span tree when the machine was
	// built with pageguard.WithSpanTracing (nil otherwise): a "replay"
	// root, one "op:*" span per trace event, and under them the leaf
	// spans the kernel emitted at its charge point. The sum of leaf-span
	// durations equals ChargedCycles exactly.
	Spans []pageguard.Span
	// ChargedCycles is the kernel's total charged cycles for the replay —
	// the reconciliation reference for Spans (always filled, traced or
	// not).
	ChargedCycles uint64
}

// Detection is one detected memory error during replay.
type Detection struct {
	// Line is the trace line of the faulting event.
	Line int
	// Err is the underlying *DanglingError or *OverflowError.
	Err error
	// Report is the forensic trap report for dangling detections, with
	// AllocLine/FreeLine filled from the trace's event provenance (nil for
	// overflow detections).
	Report *pageguard.TrapReport
}

// ReplayError reports a trace-semantics error (not a memory error): an
// event referencing an id the trace never allocated.
type ReplayError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ReplayError) Error() string { return fmt.Sprintf("trace line %d: %s", e.Line, e.Msg) }

// Replay executes events on a fresh process of m and reports what the
// detector saw.
//
// When the trace carries 'x' fault records (a trace written by a
// fault-injection run), the machine must be built with the trace's fault
// schedule (pageguard.WithFaultSchedule): replay then verifies that every
// recorded fault recurs at the same position with the same syscall and
// errno, and that no unrecorded fault appears — the bit-for-bit
// reproducibility check.
func Replay(m *pageguard.Machine, events []Event) (*Report, error) {
	proc, err := m.NewProcess()
	if err != nil {
		return nil, err
	}
	r := &replayer{proc: proc, rep: &Report{}, events: events}
	allocs := 0
	for _, ev := range events {
		r.verify = r.verify || ev.Kind == EvFault
		if ev.Kind == EvAlloc {
			allocs++
		}
	}
	r.index = make(map[uint64]int32, allocs)
	r.ids = make([]idState, 0, allocs)

	// The replay root span: every op span (and, through them, every leaf
	// the kernel emits) nests under it. With tracing disabled BeginSpan
	// returns 0 and EndSpan ignores it.
	replaySpan := proc.BeginSpan("replay", "")
	for _, ev := range events {
		if err := r.step(ev); err != nil {
			return r.rep, err
		}
	}
	proc.EndSpan(replaySpan)
	rep := r.rep
	if faults := proc.InjectedFaults(); r.verify && r.verified != len(faults) {
		return rep, &ReplayError{0, fmt.Sprintf(
			"replay injected %d faults but the trace records %d", len(faults), r.verified)}
	}
	rep.InjectedFaults = proc.InjectedFaults()
	rep.Stats = proc.Stats()
	rep.Profile = proc.Profile()
	rep.GCLog = proc.GCCycleLog()
	rep.Ledger = proc.Ledger()
	rep.Health = proc.SchedulerHealthErr()
	if rep.Health == nil {
		rep.Health = proc.HealthCheck()
	}
	reg := pageguard.NewRegistry()
	proc.RegisterMetrics(reg)
	rep.Metrics = reg.Snapshot()
	rep.Spans = proc.Spans()
	rep.ChargedCycles = proc.ChargedCycles()
	return rep, nil
}

// replayer is one replay in progress: Replay feeds it the events in order
// through step.
type replayer struct {
	proc   *pageguard.Process
	rep    *Report
	events []Event // Replay's input, which rep.Annotated shares until a fault
	// index maps each id the trace has allocated to its state in ids. Ids
	// are chosen by the trace, so this one map stays.
	index map[uint64]int32
	ids   []idState
	// freeSlots holds root slots released by 'z' events, for reuse.
	freeSlots []pageguard.Ptr
	// verify is set when the trace carries 'x' fault records; verified
	// counts those checked against the live fault log, annotated the live
	// faults already copied into rep.Annotated.
	verify              bool
	verified, annotated int
}

// idState is everything the replayer knows about one trace id.
type idState struct {
	// ptr is the id's current (or last) pointer: a freed id keeps it so
	// stale uses replay faithfully.
	ptr pageguard.Ptr
	// allocLine and freeLine are the trace lines that allocated and freed
	// the id (freeLine is 0 while live), so detections carry source
	// positions.
	allocLine, freeLine int
	// obj is the detector's record of the object, captured at allocation,
	// so the ledger can check that a detection names that very object.
	obj *pageguard.ObjectRecord
	// stale is the ledger's ground truth: the trace freed the id, so every
	// later touch of it is a stale use by construction.
	stale bool
	// The simulated conservative collector cannot see Go memory, so each id
	// gets an 8-byte root slot in the simulated globals segment holding its
	// pointer: while rooted, the object's shadow pages must not be recycled.
	// A 'z' (forget) event zeroes and releases the slot, modelling a program
	// that lost its last copy of the pointer.
	slot   pageguard.Ptr
	rooted bool
}

// step executes one event.
func (r *replayer) step(ev Event) error {
	proc, rep := r.proc, r.rep
	if ev.Kind == EvFault {
		faults := proc.InjectedFaults()
		if r.verified >= len(faults) {
			return &ReplayError{ev.Line, fmt.Sprintf(
				"trace records injected fault %q that did not occur on replay (is the machine missing the trace's fault schedule?)",
				ev.Call+" "+ev.Errno)}
		}
		f := faults[r.verified]
		if f.Call.String() != ev.Call || f.Errno.String() != ev.Errno {
			return &ReplayError{ev.Line, fmt.Sprintf(
				"injected fault diverges: trace records %s %s, replay injected %s %s",
				ev.Call, ev.Errno, f.Call, f.Errno)}
		}
		r.verified++
		return nil
	}
	if r.verify && r.verified != len(proc.InjectedFaults()) {
		return &ReplayError{ev.Line, fmt.Sprintf(
			"replay injected %d faults before this event but the trace records %d",
			len(proc.InjectedFaults()), r.verified)}
	}
	rep.Events++
	if r.annotated == 0 {
		// Before the first injected fault no 'x' record can have passed
		// verification, so the annotated stream is the input replayed so
		// far. The capped capacity makes the first append copy it.
		rep.Annotated = r.events[:rep.Events:rep.Events]
	} else {
		rep.Annotated = append(rep.Annotated, ev)
	}
	spanName, verb := opNames(ev.Kind)
	var st *idState
	if verb != "" {
		i, ok := r.index[ev.ID]
		if !ok || ev.Kind == EvForget && !r.ids[i].rooted {
			return &ReplayError{ev.Line, fmt.Sprintf("%s unknown id %d", verb, ev.ID)}
		}
		st = &r.ids[i]
	}
	var buf [32]byte
	site := string(strconv.AppendInt(append(buf[:0], "trace:"...), int64(ev.Line), 10))
	opSpan := proc.BeginSpan(spanName, site)
	switch ev.Kind {
	case EvAlloc:
		ptr, err := proc.Malloc(ev.Size, site)
		if err != nil {
			return fmt.Errorf("trace line %d: %w", ev.Line, err)
		}
		i, ok := r.index[ev.ID]
		if !ok {
			i, r.ids = int32(len(r.ids)), append(r.ids, idState{})
			r.index[ev.ID] = i
		}
		st = &r.ids[i]
		st.ptr, st.allocLine, st.freeLine = ptr, ev.Line, 0
		st.obj, st.stale = proc.ObjectAt(ptr), false
		if !st.rooted {
			if n := len(r.freeSlots); n > 0 {
				st.slot, r.freeSlots = r.freeSlots[n-1], r.freeSlots[:n-1]
			} else if st.slot, err = proc.AllocGlobal(8); err != nil {
				return &ReplayError{ev.Line, "root table: " + err.Error()}
			}
			st.rooted = true
		}
		if err := proc.WriteWordAt(st.slot, 0, 8, uint64(ptr), "root"); err != nil {
			return err
		}
		rep.Allocs++
	case EvFree:
		// A free of an id the trace already freed is a double free by
		// ground truth, whatever the detector returns.
		if err := proc.Free(st.ptr, site); err == nil && !st.stale {
			st.freeLine, st.stale = ev.Line, true
		} else if err := r.settle(ev.Line, st, err); err != nil {
			return err
		}
		rep.Frees++
	case EvWrite:
		if err := r.settle(ev.Line, st, proc.WriteWordAt(st.ptr, ev.Off, 8, uint64(ev.Line), site)); err != nil {
			return err
		}
		rep.Writes++
	case EvRead:
		_, err := proc.ReadWordAt(st.ptr, ev.Off, 8, site)
		if err := r.settle(ev.Line, st, err); err != nil {
			return err
		}
		rep.Reads++
	case EvForget:
		if err := proc.WriteWordAt(st.slot, 0, 8, 0, "root"); err != nil {
			return fmt.Errorf("trace line %d: %w", ev.Line, err)
		}
		st.rooted = false
		r.freeSlots = append(r.freeSlots, st.slot)
		rep.Forgets++
	}
	proc.EndSpan(opSpan)
	for _, f := range proc.InjectedFaults()[r.annotated:] {
		rep.Annotated = append(rep.Annotated, Event{
			Kind: EvFault, Call: f.Call.String(), Errno: f.Errno.String(),
		})
		r.annotated++
	}
	return nil
}

// settle records what the detector returned for one use of st on line. On
// a live id a dangling or overflow error is a detection and any other error
// fails the replay. A stale use is settled with the ledger and never fails
// the replay: under a reuse policy the detector may legitimately return a
// raw fault or nothing at all, and those are the missed detections being
// measured. Only a dangling error detects a stale use.
func (r *replayer) settle(line int, st *idState, err error) error {
	if err == nil && !st.stale {
		return nil
	}
	var de *pageguard.DanglingError
	dangling := errors.As(err, &de)
	if st.stale {
		r.rep.StaleOps++
		r.proc.NoteStaleUse(st.obj, dangling && st.obj != nil && de.Object == st.obj)
	}
	var oe *pageguard.OverflowError
	switch {
	case dangling:
		if de.Report != nil {
			de.Report.AllocLine, de.Report.FreeLine = st.allocLine, st.freeLine
		}
		r.rep.Detections = append(r.rep.Detections, Detection{Line: line, Err: err, Report: de.Report})
	case st.stale:
	case errors.As(err, &oe):
		r.rep.Detections = append(r.rep.Detections, Detection{Line: line, Err: err})
	default:
		return fmt.Errorf("trace line %d: %w", line, err)
	}
	return nil
}

// opNames names the grouping span for one trace event and, for an event
// that uses an allocated id, its verb in an unknown-id error.
func opNames(k EventKind) (span, verb string) {
	switch k {
	case EvAlloc:
		return "op:alloc", ""
	case EvFree:
		return "op:free", "free of"
	case EvWrite:
		return "op:write", "write to"
	case EvRead:
		return "op:read", "read of"
	case EvForget:
		return "op:forget", "forget of"
	}
	return "op:?", ""
}
