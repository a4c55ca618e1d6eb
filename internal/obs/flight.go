package obs

import (
	"fmt"
	"strings"
	"sync"
)

// Flight-event kinds. Strings, not an enum, so snapshots embedded in
// TrapReport JSON stay self-describing.
const (
	FlightAlloc   = "alloc"
	FlightFree    = "free"
	FlightSyscall = "syscall"
	FlightFault   = "fault"
	FlightTrap    = "trap"
	FlightGC      = "gc"
	FlightDegrade = "degrade"
	FlightPool    = "pool"
)

// DefaultFlightCap is the default flight-recorder ring capacity.
const DefaultFlightCap = 512

// FlightEvent is one entry in the flight recorder: a compact record of
// something the detector did, stamped with the simulated cycle at which it
// completed. Events cost zero simulated cycles to record, so the recorder
// never perturbs the numbers it documents.
type FlightEvent struct {
	// Seq is the event's position in the process's full event stream
	// (monotonic from 1, counting events the ring has since dropped).
	Seq uint64 `json:"seq"`
	// Cycles is the simulated cycle count when the event was recorded.
	Cycles uint64 `json:"cycles"`
	// Kind is one of the Flight* constants.
	Kind string `json:"kind"`
	// What refines the kind: the syscall name, GC trigger, degradation
	// rung, or errno.
	What string `json:"what,omitempty"`
	// Site is the active attribution site, when one was set.
	Site string `json:"site,omitempty"`
	// Obj is the allocation sequence number of the object involved.
	Obj uint64 `json:"obj,omitempty"`
	// Addr is the (shadow) address involved.
	Addr uint64 `json:"addr,omitempty"`
	// Pages is the page count involved (syscall sizes, GC recycling).
	Pages uint64 `json:"pages,omitempty"`
}

// FlightRecorder is a fixed-capacity ring of the last-N FlightEvents. It
// is always on: recording is a single array write, charges no simulated
// cycles, and its snapshot ships inside every TrapReport and HealthCheck
// failure so a trap arrives with the event history that led to it. A nil
// recorder is safe and records nothing.
type FlightRecorder struct {
	ring []FlightEvent
	seq  uint64 // total events ever recorded
}

// flightRecorders holds released recorders for NewFlightRecorder to reuse.
var flightRecorders sync.Pool

// NewFlightRecorder returns a recorder keeping the last cap events
// (DefaultFlightCap if cap <= 0). It reuses a released recorder of that
// capacity when one is pooled, cleared first.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	if f, ok := flightRecorders.Get().(*FlightRecorder); ok && cap(f.ring) == capacity {
		clear(f.ring[:capacity])
		f.ring, f.seq = f.ring[:0], 0
		return f
	}
	return &FlightRecorder{ring: make([]FlightEvent, 0, capacity)}
}

// Release hands the recorder to the pool NewFlightRecorder takes from. The
// recorder must not be used afterwards; snapshots already taken are copies
// and stay valid. A nil recorder is a no-op.
func (f *FlightRecorder) Release() {
	if f != nil {
		flightRecorders.Put(f)
	}
}

// Record appends ev, evicting the oldest entry once the ring is full. The
// recorder stamps ev.Seq.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	f.seq++
	ev.Seq = f.seq
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, ev)
		return
	}
	f.ring[int((f.seq-1)%uint64(cap(f.ring)))] = ev
}

// Recorded returns the total number of events ever recorded (dropped ones
// included).
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.seq
}

// Dropped returns how many events the ring has evicted.
func (f *FlightRecorder) Dropped() uint64 {
	if f == nil {
		return 0
	}
	return f.seq - uint64(len(f.ring))
}

// Snapshot copies the retained events, oldest first.
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil || len(f.ring) == 0 {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.ring))
	if len(f.ring) < cap(f.ring) {
		return append(out, f.ring...)
	}
	head := int(f.seq % uint64(cap(f.ring)))
	out = append(out, f.ring[head:]...)
	return append(out, f.ring[:head]...)
}

// FormatFlight renders a flight snapshot as indented human-readable lines,
// oldest first — the "flight recorder dump" attached below trap reports by
// pgrun and pgtrace.
func FormatFlight(evs []FlightEvent) string {
	if len(evs) == 0 {
		return "  (flight recorder empty)\n"
	}
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "  [%6d] cycle=%-10d %-8s", ev.Seq, ev.Cycles, ev.Kind)
		if ev.What != "" {
			fmt.Fprintf(&b, " %s", ev.What)
		}
		if ev.Obj != 0 {
			fmt.Fprintf(&b, " obj=%d", ev.Obj)
		}
		if ev.Addr != 0 {
			fmt.Fprintf(&b, " addr=0x%x", ev.Addr)
		}
		if ev.Pages != 0 {
			fmt.Fprintf(&b, " pages=%d", ev.Pages)
		}
		if ev.Site != "" {
			fmt.Fprintf(&b, " @ %s", ev.Site)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
