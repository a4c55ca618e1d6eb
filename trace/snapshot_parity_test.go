package trace

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim/phys"
	"repro/pageguard"
)

// parityTrace builds a trace with live allocations, dangling reads and
// writes (so TrapReports with flight-recorder context are emitted), a double
// free, and interleaved lifetimes.
func parityTrace(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "a %d %d\nw %d 0\n", i, 16+(i%5)*96, i)
		if i%3 == 0 {
			fmt.Fprintf(&b, "f %d\nr %d 0\nw %d 8\n", i, i, i) // dangling read+write
		}
		if i%7 == 0 {
			fmt.Fprintf(&b, "a %d 4000\nf %d\nf %d\n", n+i, n+i, n+i) // double free
		}
	}
	return b.String()
}

// replayBytes renders a full replay (NDJSON body + spans stream when traced)
// through the given machine.
func replayBytes(t *testing.T, m *pageguard.Machine, f *File, spans bool) []byte {
	t.Helper()
	b, err := replayResult(m, f, spans)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replayResult is replayBytes for a replay that may fail: the rendered
// bytes, or the replay's error.
func replayResult(m *pageguard.Machine, f *File, spans bool) ([]byte, error) {
	rep, err := Replay(m, f.Events)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, rep); err != nil {
		return nil, fmt.Errorf("WriteNDJSON: %w", err)
	}
	if spans {
		if err := WriteSpansNDJSON(&buf, rep); err != nil {
			return nil, fmt.Errorf("WriteSpansNDJSON: %w", err)
		}
	}
	return buf.Bytes(), nil
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestSnapshotReplayParity: replaying any directive-carrying trace on a
// Snapshot fork must produce the same bytes — NDJSON body, TrapReports with
// their flight-recorder context, spans — as a fresh machine. A trace whose
// process cannot be set up (a VA budget below the fixed stack+globals pages)
// must fail with the fresh machine's error text.
func TestSnapshotReplayParity(t *testing.T) {
	snap, err := pageguard.NewSnapshot()
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	headers := []struct {
		name   string
		header string
		spans  bool
	}{
		{"plain", "", false},
		{"guards", "!guards\n", false},
		{"policy", "!policy interval=16\n", false},
		{"faults", "!faults seed=11;mremap:prob=0.04;mprotect:prob=0.04\n", false},
		{"vabudget", "!vabudget 6000\n", false},
		{"spans", "", true},
		{"everything", "!faults seed=3;mprotect:prob=0.02\n!policy interval=32\n!vabudget 8000\n!guards\n", true},
		{"vabudget-error", "!vabudget 100\n", false},
	}
	body := parityTrace(120)
	for _, tc := range headers {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.header + body
			var extra []pageguard.Option
			if tc.spans {
				extra = append(extra, pageguard.WithSpanTracing())
			}

			ff, err := ParseFile(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := replayResult(NewMachine(ff, extra...), ff, tc.spans)

			ff2, err := ParseFile(strings.NewReader(src))
			if err != nil {
				t.Fatal(err)
			}
			m, gotErr := snap.Fork(ff2.MachineOptions(extra...)...)
			var got []byte
			if gotErr == nil {
				got, gotErr = replayResult(m, ff2, tc.spans)
			}
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("forked replay error %q, fresh machine error %q", errText(gotErr), errText(wantErr))
			}
			if (wantErr != nil) != strings.HasSuffix(tc.name, "-error") {
				t.Fatalf("fresh machine error = %v; only the -error rows fail", wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("forked replay diverged from fresh machine\nfresh:  %d bytes\nforked: %d bytes\nfirst diff at %d",
					len(want), len(got), firstDiff(want, got))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestSnapshotReplayParityConcurrent: concurrent forks replaying different
// traces must each match their fresh-machine bytes (run under -race). Each
// worker releases its fork after the replay and forks again for the next
// round, on another worker's trace, so every round after the first runs on
// frames, radix nodes and flight rings another fork gave back.
func TestSnapshotReplayParityConcurrent(t *testing.T) {
	snap, err := pageguard.NewSnapshot()
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	const workers, rounds = 8, 4
	files := make([]*File, workers)
	want := make([][]byte, workers)
	for i := range files {
		ff, err := ParseFile(strings.NewReader(parityTrace(60 + 15*i)))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = ff
		want[i] = replayBytes(t, NewMachine(ff), ff, false)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ff := files[(i+r)%workers]
				m, err := snap.Fork(ff.MachineOptions()...)
				if err != nil {
					t.Errorf("Fork: %v", err)
					return
				}
				got, err := replayResult(m, ff, false)
				m.Release()
				if err != nil {
					t.Errorf("worker %d round %d: %v", i, r, err)
					return
				}
				if !bytes.Equal(got, want[(i+r)%workers]) {
					t.Errorf("worker %d round %d: forked replay diverged from fresh machine", i, r)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestZeroPageStaysZero replays a trace that writes to its objects on a
// released fork and on a released fresh machine, then checks that the zero
// page every unwritten frame reads is still all zeros: a write that reached
// it would show up in every frame of every machine.
func TestZeroPageStaysZero(t *testing.T) {
	ff, err := ParseFile(strings.NewReader(parityTrace(120)))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := pageguard.NewSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	fork, err := snap.Fork(ff.MachineOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*pageguard.Machine{fork, NewMachine(ff)} {
		_, err := Replay(m, ff.Events)
		m.Release()
		if err != nil {
			t.Fatal(err)
		}
	}
	mem := phys.NewMemory(0)
	id, err := mem.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	if *mem.Frame(id) != ([phys.PageSize]byte{}) {
		t.Fatal("the shared zero page is not all zeros after a replay")
	}
}
