//go:build !race

package serve

import (
	"bytes"
	"testing"

	"repro/trace"
)

// Allocation ceilings for keying a replay request, over BenchmarkCacheKey's
// input. Allocation counts are nearly deterministic where host timing is
// not, so a change that puts a parse back on the raw-hit path, or a per-line
// allocation back into the canonical key, fails here. The race detector
// changes allocation counts, so these tests are built only without it.

// TestRawKeyAllocs pins the raw body hash that answers a repeat: no
// allocation at all.
func TestRawKeyAllocs(t *testing.T) {
	body := cacheBenchBody(t)
	if got := testing.AllocsPerRun(100, func() { benchRawKey = rawKeyFor(body, overrides{}) }); got != 0 {
		t.Fatalf("rawKeyFor: %v allocs, want 0", got)
	}
}

// TestCanonicalKeyAllocs pins what a raw-index miss pays to key a request:
// the parse plus the canonical key.
func TestCanonicalKeyAllocs(t *testing.T) {
	body := cacheBenchBody(t)
	got := testing.AllocsPerRun(20, func() {
		tf, err := trace.ParseFile(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		benchKey = keyForReplay(tf, false)
	})
	if got > 7 {
		t.Fatalf("parse plus canonical key: %v allocs, ceiling 7", got)
	}
}
