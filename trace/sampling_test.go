package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestSamplingDirectiveRoundtrip(t *testing.T) {
	src := "!sampling rate=16,seed=7,quarantine=8,cool=4\na 1 64\nf 1\n"
	f, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if f.SamplingSpec != "rate=16,seed=7,quarantine=8,cool=4" {
		t.Fatalf("SamplingSpec = %q", f.SamplingSpec)
	}
	if !f.Directives() {
		t.Fatalf("Directives() = false with a !sampling header")
	}
	var buf bytes.Buffer
	if err := f.Format(&buf); err != nil {
		t.Fatalf("Format: %v", err)
	}
	f2, err := ParseFile(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reparse formatted trace: %v", err)
	}
	if f2.SamplingSpec != f.SamplingSpec {
		t.Fatalf("roundtrip lost the sampling spec: %q != %q", f2.SamplingSpec, f.SamplingSpec)
	}
}

func TestSamplingDirectiveRejections(t *testing.T) {
	if _, err := ParseFile(strings.NewReader("!sampling rate=zz\na 1 64\n")); err == nil {
		t.Fatalf("ParseFile accepted a malformed sampling spec")
	}
	if _, err := ParseFile(strings.NewReader("a 1 64\n!sampling rate=1\n")); err == nil {
		t.Fatalf("ParseFile accepted a !sampling directive after events")
	}
	if _, err := Parse(strings.NewReader("!sampling rate=1\na 1 64\n")); err == nil {
		t.Fatalf("Parse accepted a directive-carrying trace")
	}
}

// TestSamplingRateOneParity is the golden parity gate from the issue: a
// rate-1 sampled replay must be byte-identical — NDJSON body, TrapReports,
// trailer stats, cycles — to the same trace replayed under full guarding,
// regardless of seed, because rate=1 selects every site and the sampling
// decision charges no simulated cycles.
func TestSamplingRateOneParity(t *testing.T) {
	body := parityTrace(120)
	// The comment line keeps the baseline's trace:N line numbering aligned
	// with the one-line !sampling header of the sampled variants.
	full, err := ParseFile(strings.NewReader("# full-guarding baseline\n" + body))
	if err != nil {
		t.Fatal(err)
	}
	want := replayBytes(t, NewMachine(full), full, false)

	for _, seed := range []string{"", ",seed=1", ",seed=987654321"} {
		src := "!sampling rate=1" + seed + "\n" + body
		f, err := ParseFile(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		got := replayBytes(t, NewMachine(f), f, false)
		if !bytes.Equal(got, want) {
			t.Errorf("rate=1%s replay diverged from full guarding: first diff at byte %d of %d/%d",
				seed, firstDiff(want, got), len(want), len(got))
		}
	}
}

// TestSampledReplayDeterministicWithMisses: at a coarse rate the replay is
// still deterministic, its unsampled stale uses settle in the ledger as
// misses (never aborting the replay — including unsampled double frees), and
// the ledger's conservation law holds.
func TestSampledReplayDeterministicWithMisses(t *testing.T) {
	src := "!sampling rate=4,seed=2\n" + parityTrace(120)
	f, err := ParseFile(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(NewMachine(f), f.Events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Health != nil {
		t.Fatalf("health violation: %v", rep.Health)
	}
	if rep.StaleOps == 0 {
		t.Fatalf("parity trace produced no stale ops")
	}
	got := rep.Ledger.Detected + rep.Ledger.Missed + rep.Ledger.Inconsistent
	if got != uint64(rep.StaleOps) {
		t.Fatalf("ledger conservation broken: detected+missed+inconsistent = %d, stale ops = %d", got, rep.StaleOps)
	}
	// Unsampled allocations succeed as trace events but are invisible to the
	// protected-operation counters, so the event count must exceed them.
	if uint64(rep.Allocs) <= rep.Stats.Allocs {
		t.Fatalf("rate=4 replay guarded every allocation: events=%d protected=%d", rep.Allocs, rep.Stats.Allocs)
	}
	if rep.Ledger.Missed == 0 {
		t.Fatalf("rate=4 replay missed nothing — unsampled stale uses should be misses")
	}

	f2, _ := ParseFile(strings.NewReader(src))
	a := replayBytes(t, NewMachine(f), f, false)
	b := replayBytes(t, NewMachine(f2), f2, false)
	if !bytes.Equal(a, b) {
		t.Fatalf("sampled replay not deterministic: first diff at %d", firstDiff(a, b))
	}
}
