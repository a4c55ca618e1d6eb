//go:build !race

package trace

import (
	"io"
	"strings"
	"testing"
)

// Allocation ceilings over the benchmarks' own inputs. Host timing is too
// noisy to gate, but allocation counts are nearly deterministic, so a change
// that puts an allocation back on one of these paths fails here. A change
// that beats a ceiling lowers it; one that raises a ceiling says why. The
// race detector changes allocation counts, so these tests are built only
// without it.

// TestParseFileAllocs pins BenchmarkParseFile's input: the parse allocates
// its File and the event slice, never per line; the reader is the third
// allocation. The scanner's buffer is pooled.
func TestParseFileAllocs(t *testing.T) {
	src := pageBenchTrace(640)
	got := testing.AllocsPerRun(20, func() {
		if _, err := ParseFile(strings.NewReader(src)); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3 {
		t.Fatalf("ParseFile: %v allocs, ceiling 3", got)
	}
}

// TestReplayAllocs pins BenchmarkReplay's input: a replay of a
// replay-unique-shaped trace on a fresh machine, released to the pools as
// pgserved releases it.
func TestReplayAllocs(t *testing.T) {
	const ceiling = 1067 // 1,046 measured with go1.24, plus 2%
	if got := releasedReplayAllocs(t, pageBenchTrace(160)); got > ceiling {
		t.Fatalf("released replay: %v allocs, ceiling %d", got, ceiling)
	}
}

// TestReplayDetectAllocs pins BenchmarkReplayDetect's input: the same over
// a replay-detect-shaped trace, whose ten trap reports share one flight log.
func TestReplayDetectAllocs(t *testing.T) {
	const ceiling = 1116 // 1,094 measured with go1.24, plus 2%
	if got := releasedReplayAllocs(t, detectBenchTrace()); got > ceiling {
		t.Fatalf("released replay-detect: %v allocs, ceiling %d", got, ceiling)
	}
}

// releasedReplayAllocs counts the allocations of booting a fresh machine,
// replaying src on it and releasing it.
func releasedReplayAllocs(t *testing.T, src string) float64 {
	f, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(10, func() {
		m := NewMachine(f)
		_, err = Replay(m, f.Events)
		m.Release()
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriteNDJSONAllocs pins BenchmarkWriteNDJSON's input: the render of a
// replay-detect-shaped report with 10 detections. The literal, segments,
// flight index and write buffer are pooled, and each detection's error
// message is appended in place (DanglingError.AppendError).
func TestWriteNDJSONAllocs(t *testing.T) {
	const ceiling = 0 // measured with go1.24; 77 with fmt's messages, 102 under encoding/json
	rep := detectBenchReport(t)
	got := testing.AllocsPerRun(20, func() {
		if err := WriteNDJSON(io.Discard, rep); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("WriteNDJSON: %v allocs, ceiling %d", got, ceiling)
	}
}

// TestAppendNDJSONAllocs pins the same render flattened into a buffer the
// caller reuses: the body's bytes cost nothing.
func TestAppendNDJSONAllocs(t *testing.T) {
	const ceiling = 0 // measured with go1.24
	rep := detectBenchReport(t)
	var buf []byte
	got := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = AppendNDJSON(buf[:0], rep); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("AppendNDJSON: %v allocs, ceiling %d", got, ceiling)
	}
}
