package trace

import (
	"bytes"
	"strings"
	"testing"
)

// A trace whose ground truth the ledger must settle exactly: id 1 is freed,
// used stale once while the replayer's simulated root is still live (must be
// detected), forgotten, and probed again after enough churn that a gc=8
// schedule has recycled its shadow pages (must be a miss under gc=8).
const ledgerTrace = `
a 1 64
f 1
r 1 0
z 1
a 2 64
a 3 64
a 4 64
a 5 64
a 6 64
a 7 64
a 8 64
a 9 64
a 10 64
a 11 64
r 1 0
`

func replayLedger(t *testing.T, policy string) *Report {
	t.Helper()
	text := ledgerTrace
	if policy != "" {
		text = "!policy " + policy + "\n" + text
	}
	tf, err := ParseFile(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(NewMachine(tf), tf.Events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return rep
}

func TestReplayLedgerMissAfterForgetUnderAggressiveGC(t *testing.T) {
	rep := replayLedger(t, "gc=8")
	// The first stale read is rooted, so it must be detected; the probe
	// after z and a collector cycle must be the one and only miss.
	if len(rep.Detections) != 1 || rep.Detections[0].Line > 6 {
		t.Fatalf("detections = %+v, want exactly the rooted stale read", rep.Detections)
	}
	if rep.Stats.MissedDetections != 1 {
		t.Fatalf("MissedDetections = %d, want 1", rep.Stats.MissedDetections)
	}
	if rep.Forgets != 1 {
		t.Fatalf("Forgets = %d, want 1", rep.Forgets)
	}
	if rep.Stats.GCRuns == 0 || rep.Stats.RecycledPages == 0 {
		t.Fatalf("expected scheduled GC activity, stats = %+v", rep.Stats)
	}
	if got := rep.Metrics.Counter("pg_missed_detections_total"); got != 1 {
		t.Fatalf("pg_missed_detections_total = %d, want 1", got)
	}
}

func TestReplayLedgerZeroMissesAtDefaultInterval(t *testing.T) {
	for _, policy := range []string{"", "gc", "gc=256"} {
		rep := replayLedger(t, policy)
		if rep.Stats.MissedDetections != 0 {
			t.Fatalf("policy %q: MissedDetections = %d, want 0", policy, rep.Stats.MissedDetections)
		}
		// Both stale reads detect: the trace is too short for a
		// default-interval cycle to recycle id 1 between z and the probe.
		if len(rep.Detections) != 2 {
			t.Fatalf("policy %q: detections = %+v, want 2", policy, rep.Detections)
		}
	}
}

func TestReplayLedgerDeterministic(t *testing.T) {
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		rep := replayLedger(t, "gc=8")
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("replay is not byte-deterministic:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

func TestReplayDoubleFreeCountsStat(t *testing.T) {
	events, err := Parse(strings.NewReader("a 1 64\nf 1\nf 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(NewMachine(&File{}), events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rep.Stats.DoubleFrees != 1 {
		t.Fatalf("DoubleFrees = %d, want 1", rep.Stats.DoubleFrees)
	}
	if got := rep.Metrics.Counter("pg_double_frees_total"); got != 1 {
		t.Fatalf("pg_double_frees_total = %d, want 1", got)
	}
}
