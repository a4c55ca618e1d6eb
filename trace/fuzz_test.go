package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/pageguard"
)

// The robustness fuzz: arbitrary operation streams — allocs, frees, double
// frees, stale reads and writes, dropped roots — replayed under every
// combination of a scheduled-GC policy and a kernel fault schedule. The
// assertions are the subsystem's load-bearing invariants, not exact
// outputs:
//
//   - the replay never aborts except at genuine address-space exhaustion;
//   - the health check (object/page bookkeeping, GC cost reconciliation,
//     ledger consistency) is clean after every scheduled cycle and at the
//     end;
//   - the missed-detection ledger settles exactly one verdict per
//     ground-truth stale use — Detected + Missed + Inconsistent equals the
//     replayer's stale-op count, with Inconsistent pinned to zero by the
//     health check;
//   - the GC cycle log, the detector's stats, and the kernel's charged
//     total agree on the scan cost;
//   - the whole replay is deterministic (same bytes in, same NDJSON out).

// fuzzPolicies is the schedule matrix the fuzzer draws from: aggressive
// and default GC intervals, watermark and tuning knobs, and the non-GC
// reuse policies.
var fuzzPolicies = []string{
	"",
	"gc=4",
	"gc=16",
	"gc=256",
	"gc=16,watermark=32",
	"gc=8,minfreed=4,cooldown=8",
	"on-exhaustion",
	"interval=32",
}

// fuzzFaults is the fault-schedule matrix: transient bursts, sustained
// probabilistic failures, and an injected VA budget on the aliasing path.
var fuzzFaults = []string{
	"",
	"seed=7;mremap:after=3,times=2",
	"seed=9;mprotect:prob=0.05",
	"seed=3;mremap:vabudget=400",
	"seed=5;mremap:prob=0.02;mprotect:after=2,times=3",
}

// genFuzzEvents decodes an arbitrary byte string into a semantically valid
// event stream: every id referenced exists, roots are forgotten at most
// once, and ops on freed ids are emitted knowingly (they are the planted
// stale uses). Returns the events and the number of stale ops planted.
func genFuzzEvents(ops []byte) ([]Event, int) {
	var events []Event
	var live, freed, rooted []uint64
	nextID := uint64(1)
	stale := 0
	line := 0
	emit := func(kind EventKind, id, size, off uint64) {
		line++
		events = append(events, Event{Kind: kind, ID: id, Size: size, Off: off, Line: line})
	}
	pick := func(ids []uint64, n byte) uint64 { return ids[int(n)%len(ids)] }
	remove := func(ids []uint64, id uint64) []uint64 {
		for i, v := range ids {
			if v == id {
				return append(ids[:i], ids[i+1:]...)
			}
		}
		return ids
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 6 {
		case 0: // alloc
			id := nextID
			nextID++
			emit(EvAlloc, id, 16+uint64(arg%8)*48, 0)
			live = append(live, id)
			rooted = append(rooted, id)
		case 1: // free a live id, or double-free a freed one
			if arg%4 == 3 && len(freed) > 0 {
				emit(EvFree, pick(freed, arg), 0, 0)
				stale++
			} else if len(live) > 0 {
				id := pick(live, arg)
				emit(EvFree, id, 0, 0)
				live = remove(live, id)
				freed = append(freed, id)
			}
		case 2: // read a live id
			if len(live) > 0 {
				emit(EvRead, pick(live, arg), 0, uint64(arg%2)*8)
			}
		case 3: // write a live id
			if len(live) > 0 {
				emit(EvWrite, pick(live, arg), 0, uint64(arg%2)*8)
			}
		case 4: // stale use of a freed id
			if len(freed) > 0 {
				kind := EvRead
				if arg%2 == 1 {
					kind = EvWrite
				}
				emit(kind, pick(freed, arg), 0, 0)
				stale++
			}
		case 5: // forget a root
			if len(rooted) > 0 {
				id := pick(rooted, arg)
				emit(EvForget, id, 0, 0)
				rooted = remove(rooted, id)
			}
		}
	}
	return events, stale
}

// replayFuzz runs one decoded fuzz input and checks every invariant.
// Returns the NDJSON bytes (nil when the replay hit the address-space
// cliff, the one legitimate abort).
func replayFuzz(t *testing.T, policy, faults string, events []Event, stale int) []byte {
	t.Helper()
	tf := &File{PolicySpec: policy, FaultSpec: faults, Events: events}
	rep, err := Replay(NewMachine(tf), tf.Events)
	if err != nil {
		if errors.Is(err, pageguard.ErrAddressSpaceExhausted) {
			return nil
		}
		t.Fatalf("policy %q faults %q: replay aborted: %v", policy, faults, err)
	}
	if rep.Health != nil {
		t.Fatalf("policy %q faults %q: health: %v", policy, faults, rep.Health)
	}
	if rep.StaleOps != stale {
		t.Fatalf("policy %q faults %q: replayer settled %d stale ops, generator planted %d",
			policy, faults, rep.StaleOps, stale)
	}
	led := rep.Ledger
	if led.Detected+led.Missed+led.Inconsistent != uint64(rep.StaleOps) {
		t.Fatalf("policy %q faults %q: ledger %+v does not account for %d stale ops",
			policy, faults, led, rep.StaleOps)
	}
	if led.Inconsistent != 0 {
		t.Fatalf("policy %q faults %q: %d inconsistent ledger entries", policy, faults, led.Inconsistent)
	}
	if led.Missed != rep.Stats.MissedDetections {
		t.Fatalf("policy %q faults %q: ledger misses %d, stats say %d",
			policy, faults, led.Missed, rep.Stats.MissedDetections)
	}
	var logSum uint64
	for _, c := range rep.GCLog {
		logSum += c.Cycles
	}
	if logSum != rep.Stats.GCCycleCost {
		t.Fatalf("policy %q faults %q: GC log sums to %d cycles, stats charge %d",
			policy, faults, logSum, rep.Stats.GCCycleCost)
	}
	if kc := rep.Metrics.Counters["pg_gc_charged_cycles_total"]; kc != rep.Stats.GCCycleCost {
		t.Fatalf("policy %q faults %q: kernel charged %d GC cycles, stats say %d",
			policy, faults, kc, rep.Stats.GCCycleCost)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReplayScheduledGC interleaves fault schedules with scheduled GC
// cycles over arbitrary operation streams.
func FuzzReplayScheduledGC(f *testing.F) {
	f.Add(uint8(1), uint8(1), []byte{0, 0, 0, 1, 1, 0, 4, 0, 5, 0, 4, 1})
	f.Add(uint8(2), uint8(2), []byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 3, 1, 3, 4, 2})
	f.Add(uint8(5), uint8(3), bytes.Repeat([]byte{0, 4, 3, 1, 1, 0, 4, 0, 5, 1}, 40))
	f.Add(uint8(6), uint8(4), bytes.Repeat([]byte{0, 7, 1, 0, 4, 1, 4, 0}, 60))
	f.Add(uint8(7), uint8(0), bytes.Repeat([]byte{0, 3, 2, 0, 1, 1, 5, 0}, 25))
	f.Fuzz(func(t *testing.T, policyByte, faultByte uint8, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096] // bound replay cost per input
		}
		policy := fuzzPolicies[int(policyByte)%len(fuzzPolicies)]
		faults := fuzzFaults[int(faultByte)%len(fuzzFaults)]
		events, stale := genFuzzEvents(ops)
		if len(events) == 0 {
			return
		}
		first := replayFuzz(t, policy, faults, events, stale)
		if second := replayFuzz(t, policy, faults, events, stale); !bytes.Equal(first, second) {
			t.Fatalf("policy %q faults %q: replay is not byte-deterministic", policy, faults)
		}
	})
}

// TestFuzzSeedMatrix replays a representative operation stream under the
// FULL policy x fault matrix (the fuzzer itself picks one pair per input),
// so a plain `go test` run exercises every combination.
func TestFuzzSeedMatrix(t *testing.T) {
	ops := bytes.Repeat([]byte{0, 4, 3, 1, 1, 0, 4, 0, 5, 1, 0, 2, 2, 1, 1, 3}, 30)
	events, stale := genFuzzEvents(ops)
	for _, policy := range fuzzPolicies {
		for _, faults := range fuzzFaults {
			replayFuzz(t, policy, faults, events, stale)
		}
	}
}

// FuzzParseFile feeds arbitrary bytes to the trace parser, the first thing
// pgserved runs on an untrusted request body. Whatever parses must survive
// Format and a second ParseFile unchanged (line numbers aside: Format drops
// comments and blank lines), and replaying it must return a report or an
// error, never panic.
func FuzzParseFile(f *testing.F) {
	for _, pattern := range []string{"testdata/*.trace", "testdata/adversarial/*.trace"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	for _, src := range oversizeTraces {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := ParseFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		var text bytes.Buffer
		if err := tf.Format(&text); err != nil {
			t.Fatalf("Format: %v", err)
		}
		again, err := ParseFile(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("formatted trace does not parse: %v\n%s", err, text.Bytes())
		}
		if a, b := withoutLines(tf), withoutLines(again); !reflect.DeepEqual(a, b) {
			t.Fatalf("Parse→Format→Parse changed the trace:\n%+v\n%+v", a, b)
		}
		// Replay time and memory grow with every simulated page an input
		// maps (a 10 GB object takes seconds), so inputs allocating more
		// than fuzzReplayBytes in total are checked for the round trip only.
		var allocated uint64
		for _, ev := range tf.Events {
			if ev.Kind == EvAlloc {
				allocated += ev.Size
			}
			if allocated > fuzzReplayBytes {
				return
			}
		}
		Replay(NewMachine(tf), tf.Events)
	})
}

// fuzzReplayBytes caps the total allocation size FuzzParseFile replays.
const fuzzReplayBytes = 64 << 20

// withoutLines copies f with every source line number zeroed.
func withoutLines(f *File) File {
	out := *f
	out.FaultLine, out.PolicyLine, out.VABudgetLine, out.GuardsLine, out.SamplingLine = 0, 0, 0, 0, 0
	out.Events = append([]Event(nil), f.Events...)
	for i := range out.Events {
		out.Events[i].Line = 0
	}
	return out
}
