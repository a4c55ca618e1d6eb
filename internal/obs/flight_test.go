package obs

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// ringModel is the flight recorder as it was before windows shared a log:
// a ring whose every snapshot is a fresh copy. The differential test holds
// FlightRecorder to it.
type ringModel struct {
	ring []FlightEvent
	seq  uint64
}

func newRingModel(capacity int) *ringModel {
	return &ringModel{ring: make([]FlightEvent, 0, capacity)}
}

func (m *ringModel) record(ev FlightEvent) {
	m.seq++
	ev.Seq = m.seq
	if len(m.ring) < cap(m.ring) {
		m.ring = append(m.ring, ev)
		return
	}
	m.ring[int((m.seq-1)%uint64(cap(m.ring)))] = ev
}

func (m *ringModel) dropped() uint64 { return m.seq - uint64(len(m.ring)) }

func (m *ringModel) snapshot() []FlightEvent {
	if len(m.ring) == 0 {
		return nil
	}
	out := make([]FlightEvent, 0, len(m.ring))
	if len(m.ring) < cap(m.ring) {
		return append(out, m.ring...)
	}
	head := int(m.seq % uint64(cap(m.ring)))
	out = append(out, m.ring[head:]...)
	return append(out, m.ring[:head]...)
}

// handedOut is a window as returned, beside a copy of what it held then.
type handedOut struct {
	window, want []FlightEvent
}

// TestFlightWindowsMatchRingModel drives random runs of Record, Window,
// Snapshot and Release-then-reuse through FlightRecorder and through the
// old ring. Recorded and Dropped agree throughout, every window and
// snapshot equals the old snapshot at that point, and no window handed out
// earlier ever changes: not after more recording, not after its recorder
// is released, and not after the pool hands that recorder to another
// process that records and takes windows of its own.
func TestFlightWindowsMatchRingModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := []int{1, 2, 3, 5, 8, 16}[rng.Intn(6)]
		f, m := NewFlightRecorder(capacity), newRingModel(capacity)
		var out []handedOut
		check := func(step int, what string) {
			t.Helper()
			if f.Recorded() != m.seq || f.Dropped() != m.dropped() {
				t.Fatalf("seed %d step %d (%s): recorded %d dropped %d, want %d and %d",
					seed, step, what, f.Recorded(), f.Dropped(), m.seq, m.dropped())
			}
			for i, h := range out {
				if !slices.Equal(h.window, h.want) {
					t.Fatalf("seed %d step %d (%s): window %d changed:\n got %v\nwant %v", seed, step, what, i, h.window, h.want)
				}
			}
		}
		for step := 0; step < 600; step++ {
			var what string
			switch op := rng.Intn(20); {
			case op < 12:
				// A burst of events, sometimes long enough to leave a gap
				// after the last window.
				n := 1 + rng.Intn(3)
				if rng.Intn(8) == 0 {
					n += capacity + rng.Intn(2*capacity)
				}
				for range n {
					ev := FlightEvent{Cycles: uint64(rng.Intn(1000)), Kind: FlightAlloc,
						Site: fmt.Sprintf("s%d", rng.Intn(4)), Obj: uint64(step)}
					f.Record(ev)
					m.record(ev)
				}
				what = fmt.Sprintf("record %d", n)
			case op < 17:
				w := f.Window()
				if want := m.snapshot(); !slices.Equal(w, want) {
					t.Fatalf("seed %d step %d: window\n got %v\nwant %v", seed, step, w, want)
				}
				if cap(w) != len(w) {
					t.Fatalf("seed %d step %d: window len %d cap %d: an append to it would write into the log", seed, step, len(w), cap(w))
				}
				out = append(out, handedOut{w, slices.Clone(w)})
				what = "window"
			case op < 19:
				if got, want := f.Snapshot(), m.snapshot(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d: snapshot\n got %v\nwant %v", seed, step, got, want)
				}
				what = "snapshot"
			default:
				// The process ends; the next one reuses the pooled recorder.
				f.Release()
				f, m = NewFlightRecorder(capacity), newRingModel(capacity)
				what = "release and reuse"
			}
			check(step, what)
		}
		f.Release()
	}
}

// TestFlightWindowsShareOneLog: a recorder learns, when released, how long
// a run of overlapping windows its owner took, and an owner that takes the
// same run again finds one log segment enough: its windows store each
// event once, every one sharing storage with the next.
func TestFlightWindowsShareOneLog(t *testing.T) {
	const capacity, gap, windows = 8, 2, 6
	run := func(f *FlightRecorder) [][]FlightEvent {
		var ws [][]FlightEvent
		for range windows {
			for range gap {
				f.Record(FlightEvent{Kind: FlightAlloc})
			}
			ws = append(ws, f.Window())
		}
		return ws
	}
	// Built directly, not taken from the pool, so the first owner starts
	// with no learned segment.
	first := &FlightRecorder{ring: make([]FlightEvent, 0, capacity)}
	run(first)
	first.Release()
	if first.segment != gap*windows {
		t.Fatalf("released recorder learned a %d-event segment, want %d", first.segment, gap*windows)
	}
	next := &FlightRecorder{ring: make([]FlightEvent, 0, capacity), segment: first.segment}
	ws := run(next)
	for i := 1; i < len(ws); i++ {
		prev, w := ws[i-1], ws[i]
		at := prev[len(prev)-1].Seq - w[0].Seq // prev's last event, in w
		if &prev[len(prev)-1] != &w[at] {
			t.Fatalf("windows %d and %d overlap at seq %d but do not share storage", i-1, i, prev[len(prev)-1].Seq)
		}
	}
}
