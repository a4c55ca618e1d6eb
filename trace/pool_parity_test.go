package trace

import (
	"bytes"
	"fmt"
	"runtime"
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

// poolTrace is parityTrace followed by a phase that forgets every object the
// first phase freed and keeps freeing, so a collecting policy can reclaim
// their shadow pages: a stale pointer left in reused memory would change
// what it reclaims.
func poolTrace(n int) string {
	var b strings.Builder
	b.WriteString(parityTrace(n))
	for i := 3; i <= n; i += 3 {
		id := 10*n + i
		fmt.Fprintf(&b, "z %d\na %d 64\nw %d 0\nf %d\n", i, id, id, id)
	}
	return b.String()
}

// parityRows is the matrix the pool parity test replays poolTrace under:
// every directive alone, all together, span tracing, a VA budget the
// process cannot be set up with, and a read of a page the replay never
// mapped, which a stale page-table entry would let through.
var parityRows = []struct {
	name, header, trailer string
	spans                 bool
}{
	{"plain", "", "", false},
	{"guards", "!guards\n", "", false},
	{"policy", "!policy interval=16\n", "", false},
	{"gc", "!policy gc=16\n", "", false},
	{"faults", "!faults seed=11;mremap:prob=0.04;mprotect:prob=0.04\n", "", false},
	{"vabudget", "!vabudget 6000\n", "", false},
	{"sampling", "!sampling rate=4,seed=11,quarantine=16,cool=2\n", "", false},
	{"spans", "", "", true},
	{"everything", "!faults seed=3;mprotect:prob=0.02\n!policy interval=32\n!vabudget 8000\n!guards\n", "", true},
	{"vabudget-error", "!vabudget 100\n", "", false},
	{"unmapped-error", "", "r 1 1048576\n", false},
}

// emptyPools empties the process-wide pools of frames, range-map nodes,
// TLB entries and flight rings: sync.Pool drops what it holds over two
// collections.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// churn replays longer traces than the parity rows' on machines it
// releases, so the pools hold frames, range-map nodes, TLB entries and
// flight rings with other contents, covering more pages than a parity row
// maps.
func churn(t *testing.T) {
	t.Helper()
	for _, header := range []string{"!guards\n", "!faults seed=5;mremap:prob=0.05\n", ""} {
		ff, err := ParseFile(strings.NewReader(header + parityTrace(400)))
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(ff, pageguard.WithSpanTracing())
		_, err = Replay(m, ff.Events)
		m.Release()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPooledReplayParity: a machine built after several released machines,
// so on their pooled frames, range-map nodes, TLB entries and flight rings,
// must render the same bytes (NDJSON body, trap reports with their flight
// context, spans) as a machine built with no pool history, for every row.
// A row that fails must fail with the same error text.
func TestPooledReplayParity(t *testing.T) {
	body := poolTrace(120)
	for _, tc := range parityRows {
		t.Run(tc.name, func(t *testing.T) {
			ff, err := ParseFile(strings.NewReader(tc.header + body + tc.trailer))
			if err != nil {
				t.Fatal(err)
			}
			var extra []pageguard.Option
			if tc.spans {
				extra = append(extra, pageguard.WithSpanTracing())
			}
			emptyPools()
			want, wantErr := replayResult(NewMachine(ff, extra...), ff, tc.spans)
			if (wantErr != nil) != strings.HasSuffix(tc.name, "-error") {
				t.Fatalf("replay error = %v; only the -error rows fail", wantErr)
			}
			for round := 0; round < 2; round++ {
				churn(t)
				m := NewMachine(ff, extra...)
				got, gotErr := replayResult(m, ff, tc.spans)
				m.Release()
				if errText(gotErr) != errText(wantErr) {
					t.Fatalf("round %d: pooled replay error %q, unpooled error %q", round, errText(gotErr), errText(wantErr))
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d: pooled replay diverged from unpooled\nunpooled: %d bytes\npooled:   %d bytes\nfirst diff at %d",
						round, len(want), len(got), firstDiff(want, got))
				}
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

// TestPooledReplayParityConcurrent: eight workers replaying different
// traces under a collecting policy must each match their unpooled bytes
// (run under -race). Each worker
// releases its machine after the replay and builds another for the next
// round, on another worker's trace, so every round after the first runs on
// frames, range-map nodes, TLB entries and flight rings another machine
// gave back.
func TestPooledReplayParityConcurrent(t *testing.T) {
	const workers, rounds = 8, 4
	files := make([]*File, workers)
	want := make([][]byte, workers)
	for i := range files {
		ff, err := ParseFile(strings.NewReader("!policy gc=48\n" + poolTrace(20+4*i)))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = ff
		emptyPools()
		want[i] = replayBytes(t, NewMachine(ff), ff, false)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ff := files[(i+r)%workers]
				m := NewMachine(ff)
				got, err := replayResult(m, ff, false)
				m.Release()
				if err != nil {
					t.Errorf("worker %d round %d: %v", i, r, err)
					return
				}
				if !bytes.Equal(got, want[(i+r)%workers]) {
					t.Errorf("worker %d round %d: pooled replay diverged from unpooled", i, r)
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestZeroPageStaysZero replays a trace that writes to its objects on two
// machines, the second on the memory the first released, then checks that
// the zero page every unwritten frame reads is still all zeros: a write that
// reached it would show up in every frame of every machine.
func TestZeroPageStaysZero(t *testing.T) {
	ff, err := ParseFile(strings.NewReader(parityTrace(120)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m := NewMachine(ff)
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
