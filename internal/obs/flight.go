package obs

import (
	"fmt"
	"slices"
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
// is always on: recording is a single array write and charges no simulated
// cycles. A trap report takes a Window of it, a failed HealthCheck a
// Snapshot, so a trap arrives with the event history that led to it. A nil
// recorder is safe and records nothing.
//
// Windows share storage. Consecutive detections see overlapping windows,
// so the recorder keeps one append-only log of the events its windows
// have covered, and each window is a view into that log. A window that
// overlaps or adjoins the log's tail appends only the events the log does
// not hold yet. A window that does not, or that the segment has no room
// for, starts a new log segment. The log is never overwritten or pooled:
// the ring is what Release recycles.
type FlightRecorder struct {
	ring []FlightEvent
	seq  uint64 // total events ever recorded

	// log is the newest log segment: events with consecutive Seqs, the
	// first at log[0]. Windows are subslices of it.
	log []FlightEvent
	// chainLo is the first Seq of the run of overlapping windows the log
	// segment is serving, and extent the longest such run, in events, since
	// the recorder was taken from the pool.
	chainLo uint64
	extent  int
	// segment is the capacity a new log segment starts with, learned from
	// the longest run of overlapping windows of the recorder's previous
	// owner, so that replays of similar traces find one segment enough.
	// Without it a replay copies the events it shares again into each
	// larger segment (DESIGN §14 has the measurements).
	segment int
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
// recorder must not be used afterwards. Windows and snapshots already taken
// stay valid and unchanged: the recorder lets go of its log, which the
// windows keep alive. A nil recorder is a no-op.
func (f *FlightRecorder) Release() {
	if f == nil {
		return
	}
	if f.extent > 0 {
		// A sixteenth more covers the run of a similar trace that is a
		// few events longer. A run longer than two rings is rare; do not
		// let one make every later owner start with a large segment.
		f.segment = min(f.extent+f.extent/16, 2*cap(f.ring))
	}
	f.log, f.chainLo, f.extent = nil, 0, 0
	flightRecorders.Put(f)
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
	return f.appendRange(make([]FlightEvent, 0, len(f.ring)), f.seq+1-uint64(len(f.ring)), f.seq+1)
}

// Window returns the retained events, oldest first, as Snapshot does, but
// as a read-only view into the recorder's shared log rather than a copy of
// its own. Its contents never change, whatever the recorder does next; its
// capacity ends at its length, so an append to it copies. It is what a
// trap report carries: one replay's overlapping windows store each event
// once.
func (f *FlightRecorder) Window() []FlightEvent {
	if f == nil || len(f.ring) == 0 {
		return nil
	}
	hi := f.seq + 1
	lo := hi - uint64(len(f.ring))
	// Windows only move forward: lo is never below the log's first Seq.
	var base, end uint64
	if len(f.log) > 0 {
		base = f.log[0].Seq
		end = base + uint64(len(f.log))
	}
	continues := len(f.log) > 0 && lo <= end
	if continues && int(hi-base) <= cap(f.log) {
		// The window overlaps or adjoins the log's tail, and the segment
		// has room for the events it does not hold yet.
		f.log = f.appendRange(f.log, end, hi)
	} else {
		size := max(int(hi-lo), f.segment)
		if continues {
			// The segment ran out of room under a run of overlapping
			// windows: the next one grows geometrically.
			size = max(size, 2*int(hi-lo))
		} else {
			f.chainLo = lo
		}
		// Grow rounds the capacity up to what the allocation holds.
		f.log = f.appendRange(slices.Grow([]FlightEvent(nil), size), lo, hi)
		base = lo
	}
	f.extent = max(f.extent, int(hi-f.chainLo))
	return f.log[lo-base : hi-base : hi-base]
}

// appendRange appends the retained events with Seq in [lo, hi) to dst,
// oldest first. The range must lie within what the ring retains.
func (f *FlightRecorder) appendRange(dst []FlightEvent, lo, hi uint64) []FlightEvent {
	if lo >= hi {
		return dst
	}
	n := uint64(cap(f.ring))
	i, j := int((lo-1)%n), int((hi-1)%n)
	if i < j {
		return append(dst, f.ring[i:j]...)
	}
	dst = append(dst, f.ring[i:]...)
	return append(dst, f.ring[:j]...)
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
