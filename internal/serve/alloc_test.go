//go:build !race

package serve

import "testing"

// Allocation ceiling for keying a replay request, over BenchmarkCacheKey's
// input. Allocation counts are nearly deterministic where host timing is
// not, so a change that puts an allocation on the key a repeat pays fails
// here. The race detector changes allocation counts, so this test is built
// only without it. The parse a miss pays keeps its own ceiling in trace's
// TestParseFileAllocs.

// TestRawKeyAllocs pins the body hash that answers a repeat: no allocation
// at all.
func TestRawKeyAllocs(t *testing.T) {
	body := cacheBenchBody(t)
	if got := testing.AllocsPerRun(100, func() { benchRawKey = rawKeyFor(body, overrides{}) }); got != 0 {
		t.Fatalf("rawKeyFor: %v allocs, want 0", got)
	}
}
