package cliff

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/pageguard"
	"repro/trace"
)

var updateCorpus = flag.Bool("update-corpus", false,
	"rewrite the committed adversarial corpus under trace/testdata/adversarial")

// corpusDir is the committed location of the canonical corpus bytes,
// relative to this package's directory.
const corpusDir = "../../trace/testdata/adversarial"

func replayCorpus(t *testing.T, c CorpusEntry) *trace.Report {
	t.Helper()
	tf := c.File()
	rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
	if err != nil {
		t.Fatalf("corpus %s: replay: %v", c.Name, err)
	}
	return rep
}

// TestCorpusPlantedGroundTruth replays every corpus trace under its own
// directives and asserts the exact planted outcome: detections by kind, the
// double-free counter, and the missed-detection ledger.
func TestCorpusPlantedGroundTruth(t *testing.T) {
	for _, c := range Corpus() {
		rep := replayCorpus(t, c)
		var dangling, overflows int
		for _, d := range rep.Detections {
			var de *pageguard.DanglingError
			var oe *pageguard.OverflowError
			switch {
			case errors.As(d.Err, &de):
				dangling++
			case errors.As(d.Err, &oe):
				overflows++
			default:
				t.Errorf("corpus %s: unclassifiable detection %v", c.Name, d.Err)
			}
		}
		if dangling != c.Expect.Dangling || overflows != c.Expect.Overflows {
			t.Errorf("corpus %s: dangling=%d overflows=%d, want %d/%d",
				c.Name, dangling, overflows, c.Expect.Dangling, c.Expect.Overflows)
		}
		if rep.Stats.DoubleFrees != c.Expect.DoubleFrees {
			t.Errorf("corpus %s: double frees = %d, want %d",
				c.Name, rep.Stats.DoubleFrees, c.Expect.DoubleFrees)
		}
		if rep.Stats.MissedDetections != c.Expect.Missed {
			t.Errorf("corpus %s: missed = %d, want %d",
				c.Name, rep.Stats.MissedDetections, c.Expect.Missed)
		}
	}
}

// TestCorpusDoubleFreeForensics asserts every double-free detection carries
// both free sites.
func TestCorpusDoubleFreeForensics(t *testing.T) {
	c, err := CorpusByName("double_free_storm")
	if err != nil {
		t.Fatal(err)
	}
	rep := replayCorpus(t, c)
	var seen int
	for _, d := range rep.Detections {
		var dfe *pageguard.DoubleFreeError
		if !errors.As(d.Err, &dfe) {
			continue
		}
		seen++
		if dfe.FirstFreeSite == "" || dfe.SecondFreeSite == "" || dfe.FirstFreeSite == dfe.SecondFreeSite {
			t.Errorf("double free without distinct sites: first=%q second=%q",
				dfe.FirstFreeSite, dfe.SecondFreeSite)
		}
	}
	if uint64(seen) != c.Expect.DoubleFrees {
		t.Fatalf("typed DoubleFreeError detections = %d, want %d", seen, c.Expect.DoubleFrees)
	}
}

// TestCorpusZeroMissesAtDefaultInterval replays every corpus trace with its
// policy forced to the default gc interval: the probe windows are built so
// no default-interval cycle can fire between a forget and its probe, so the
// ledger must stay at zero — the check.sh exhaustion gate's invariant.
func TestCorpusZeroMissesAtDefaultInterval(t *testing.T) {
	for _, c := range Corpus() {
		tf := c.File()
		tf.PolicySpec = "gc=256"
		rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
		if err != nil {
			t.Fatalf("corpus %s at gc=256: %v", c.Name, err)
		}
		if rep.Stats.MissedDetections != 0 {
			t.Errorf("corpus %s at gc=256: missed = %d, want 0", c.Name, rep.Stats.MissedDetections)
		}
	}
}

// TestCorpusFilesInSync asserts the committed corpus bytes are exactly what
// the generators produce (run with -update-corpus to rewrite).
func TestCorpusFilesInSync(t *testing.T) {
	for _, c := range Corpus() {
		want, err := CorpusBytes(c)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(corpusDir, c.Name+".trace")
		if *updateCorpus {
			if err := os.MkdirAll(corpusDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus %s: %v (run go test ./internal/cliff -update-corpus)", c.Name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("corpus %s: committed bytes diverge from the generator (run go test ./internal/cliff -update-corpus)", c.Name)
		}
	}
}

// TestCorpusFilesReplayBitForBit parses the committed files and asserts the
// NDJSON replay result is byte-identical across two fresh machines — the
// reproducibility property pgtrace and pgserved both rely on.
func TestCorpusFilesReplayBitForBit(t *testing.T) {
	for _, c := range Corpus() {
		raw, err := CorpusBytes(c)
		if err != nil {
			t.Fatal(err)
		}
		var bodies [][]byte
		for i := 0; i < 2; i++ {
			tf, err := trace.ParseFile(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("corpus %s: %v", c.Name, err)
			}
			rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
			if err != nil {
				t.Fatalf("corpus %s: %v", c.Name, err)
			}
			var buf bytes.Buffer
			if err := trace.WriteNDJSON(&buf, rep); err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, buf.Bytes())
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("corpus %s: replay not byte-deterministic", c.Name)
		}
	}
}

// TestAllocStormNeedsRecycling proves the compressed budget is a real
// cliff: the same events with recycling disabled must exhaust the budget.
func TestAllocStormNeedsRecycling(t *testing.T) {
	c, err := CorpusByName("alloc_storm")
	if err != nil {
		t.Fatal(err)
	}
	tf := c.File()
	tf.PolicySpec = "" // never-reuse
	_, err = trace.Replay(trace.NewMachine(tf), tf.Events)
	if err == nil {
		t.Fatal("alloc_storm survived its VA budget without recycling; the budget is not a cliff")
	}
}

// TestCliffWorkloadsGenerateDeterministically asserts the cliff generators
// are stable and respect the probe-window rule (all probes of forgotten ids
// within the first core.DefaultInterval allocations).
func TestCliffWorkloadsGenerateDeterministically(t *testing.T) {
	for _, w := range CliffWorkloads() {
		a, b := w.Generate(), w.Generate()
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: unstable generator (%d vs %d events)", w.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: event %d differs between generations", w.Name, i)
			}
		}
		// Ground-truth rule: stale uses of forgotten ids only in the
		// first 256 allocations.
		forgotten := map[uint64]bool{}
		var allocs int
		for _, ev := range a {
			switch ev.Kind {
			case trace.EvAlloc:
				allocs++
				delete(forgotten, ev.ID)
			case trace.EvForget:
				forgotten[ev.ID] = true
			case trace.EvRead, trace.EvWrite, trace.EvFree:
				if forgotten[ev.ID] && allocs >= 256 {
					t.Fatalf("%s: stale use of forgotten id %d after alloc %d breaks the zero-miss-at-default rule",
						w.Name, ev.ID, allocs)
				}
			}
		}
	}
}

// TestCliffWorkloadsZeroMissesAtDefaultInterval is the workload-level
// version of the corpus invariant.
func TestCliffWorkloadsZeroMissesAtDefaultInterval(t *testing.T) {
	for _, w := range CliffWorkloads() {
		tf := &trace.File{PolicySpec: "gc=256", Events: w.Generate()}
		rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Stats.MissedDetections != 0 {
			t.Errorf("%s at gc=256: missed = %d, want 0", w.Name, rep.Stats.MissedDetections)
		}
		if rep.Stats.GCRuns == 0 {
			t.Errorf("%s at gc=256: the schedule never fired", w.Name)
		}
	}
}
