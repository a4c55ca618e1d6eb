package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pageguard"
)

var update = flag.Bool("update", false, "rewrite the golden NDJSON bodies under testdata/golden")

// goldenBody renders src the way pgtrace -ndjson does: guards sets the
// trace's !guards directive (-guards), spans adds span tracing and the span
// stream (-spans).
func goldenBody(t *testing.T, src string, guards, spans bool) []byte {
	t.Helper()
	tf, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if guards {
		tf.Guards = true
	}
	var extra []pageguard.Option
	if spans {
		extra = append(extra, pageguard.WithSpanTracing())
	}
	rep, err := Replay(NewMachine(tf, extra...), tf.Events)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	if spans {
		if err := WriteSpansNDJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestNDJSONGolden byte-compares the NDJSON bodies of the committed traces
// with testdata/golden: faulted.trace and the adversarial corpus, each
// plain, with spans and with guard pages, plus detectBenchTrace's
// replay-detect-shaped body. Every other NDJSON check in the repository
// compares two renders of the same code; this one sees a format drift.
// go test ./trace -run TestNDJSONGolden -update rewrites the files.
func TestNDJSONGolden(t *testing.T) {
	traces, err := filepath.Glob("testdata/adversarial/*.trace")
	if err != nil {
		t.Fatal(err)
	}
	traces = append([]string{"testdata/faulted.trace"}, traces...)
	type golden struct {
		name          string
		src           string
		guards, spans bool
	}
	cases := []golden{{name: "detect_bench", src: detectBenchTrace()}}
	for _, path := range traces {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		base := strings.TrimSuffix(filepath.Base(path), ".trace")
		cases = append(cases,
			golden{name: base, src: string(src)},
			golden{name: base + ".spans", src: string(src), spans: true},
			golden{name: base + ".guards", src: string(src), guards: true})
	}
	for _, c := range cases {
		got := goldenBody(t, c.src, c.guards, c.spans)
		path := filepath.Join("testdata", "golden", c.name+".ndjson")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create it)", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: NDJSON body diverged from %s (%d bytes, want %d)", c.name, path, len(got), len(want))
		}
	}
}
