package trace

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/pageguard"
)

// pageBenchTrace renders a trace shaped like perfbench's replay requests:
// objects objects of 12 to 28 pages, each allocated, written, read and
// freed, plus two dangling reads. 160 objects is a replay-unique request,
// 640 replay-zipf's base trace (about 25 KB). The fixed seed keeps every run
// replaying the same bytes.
func pageBenchTrace(objects int) string {
	return benchTrace(objects, func(id int) bool { return id == 37 || id == 118 })
}

// detectBenchTrace renders a trace shaped like a replay-detect request: 160
// objects, every 16th read once more after its free (10 dangling reads).
func detectBenchTrace() string {
	return benchTrace(160, func(id int) bool { return id%16 == 0 })
}

// benchTrace renders objects objects in pageBenchTrace's shape; dangling
// marks the ids read once more after their free.
func benchTrace(objects int, dangling func(id int) bool) string {
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for id := 1; id <= objects; id++ {
		size := 49152 + rng.Intn(7)*16384
		fmt.Fprintf(&b, "a %d %d\nw %d %d\nr %d %d\nf %d\n",
			id, size, id, rng.Intn(size/8)*8, id, rng.Intn(64)*8, id)
		if dangling(id) {
			fmt.Fprintf(&b, "r %d %d\n", id, rng.Intn(64)*8)
		}
	}
	return b.String()
}

// BenchmarkReplay measures the replay layer as pgserved runs it on a cache
// miss: fork the pre-warmed snapshot, replay the parsed events on the fork,
// then release the fork's memory to the pools. Parsing and rendering are
// outside the timed loop.
func BenchmarkReplay(b *testing.B) {
	benchForkedReplay(b, pageBenchTrace(160), 2)
}

// benchForkedReplay times fork, replay and release of src, which must
// detect want dangling uses.
func benchForkedReplay(b *testing.B, src string, want int) {
	f, err := ParseFile(strings.NewReader(src))
	if err != nil {
		b.Fatal(err)
	}
	snap, err := pageguard.NewSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := snap.Fork(f.MachineOptions()...)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := Replay(m, f.Events)
		m.Release()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Detections) != want {
			b.Fatalf("replay detected %d dangling uses, want %d", len(rep.Detections), want)
		}
	}
}

// BenchmarkReplayDetect is BenchmarkReplay over a replay-detect-shaped
// trace: ten detections, each with a trap report and its flight window.
func BenchmarkReplayDetect(b *testing.B) {
	benchForkedReplay(b, detectBenchTrace(), 10)
}

// BenchmarkParseFile measures the parse pgserved runs on every cache miss,
// over a replay-zipf-sized trace.
func BenchmarkParseFile(b *testing.B) {
	src := pageBenchTrace(640)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := ParseFile(strings.NewReader(src))
		if err != nil {
			b.Fatal(err)
		}
		parsed = f
	}
}

// parsed keeps BenchmarkParseFile's result live.
var parsed *File

// BenchmarkWriteNDJSON measures the render pgserved runs on every cache
// miss, over the report of a replay-detect-shaped trace.
func BenchmarkWriteNDJSON(b *testing.B) {
	rep := detectBenchReport(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteNDJSON(io.Discard, rep); err != nil {
			b.Fatal(err)
		}
	}
}

// detectBenchReport replays detectBenchTrace on a fresh machine.
func detectBenchReport(tb testing.TB) *Report {
	f, err := ParseFile(strings.NewReader(detectBenchTrace()))
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := Replay(NewMachine(f), f.Events)
	if err != nil {
		tb.Fatal(err)
	}
	if len(rep.Detections) != 10 {
		tb.Fatalf("replay detected %d dangling uses, want 10", len(rep.Detections))
	}
	return rep
}
