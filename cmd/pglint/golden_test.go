package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// update rewrites the golden files instead of diffing against them:
//
//	go test ./cmd/pglint -run TestGoldenCorpus -update
var update = flag.Bool("update", false, "rewrite the golden files under examples/minic/golden")

// corpusDir holds the mini-C example corpus; goldens live under
// corpusDir/golden/<name>.json.
const corpusDir = "../../examples/minic"

// corpusNames is the fixed set of corpus programs. The golden test fails if
// a .c file appears or disappears without this list (and the goldens)
// being updated with it.
var corpusNames = []string{"compiler", "longlived", "olden", "quickstart", "webserver"}

func corpusFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, strings.TrimSuffix(filepath.Base(f), ".c"))
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(corpusNames, ",") {
		t.Fatalf("corpus mismatch: found %v, want %v (update corpusNames and the goldens together)",
			names, corpusNames)
	}
	return files
}

// TestGoldenCorpus locks the full -json report for every corpus program
// against checked-in goldens. Any analysis change that shifts a verdict,
// witness, or elision decision shows up as a golden diff and must be
// regenerated deliberately with -update.
func TestGoldenCorpus(t *testing.T) {
	for _, f := range corpusFiles(t) {
		name := strings.TrimSuffix(filepath.Base(f), ".c")
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := run("", options{jsonF: true}, []string{f}, &buf); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join(corpusDir, "golden", name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with: go test ./cmd/pglint -run TestGoldenCorpus -update): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("report differs from %s\n--- golden ---\n%s\n--- got ---\n%s",
					golden, want, buf.Bytes())
			}
		})
	}
}

// TestGoldenCorpusVerdicts pins the headline facts the corpus exists to
// demonstrate, reading them from the goldens themselves — so a careless
// -update that regenerates nonsense still fails the suite.
func TestGoldenCorpusVerdicts(t *testing.T) {
	load := func(name string) jsonReport {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(corpusDir, "golden", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc jsonReport
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Schema != Schema {
			t.Fatalf("%s: schema %q, want %q", name, doc.Schema, Schema)
		}
		if doc.Engine != Engine {
			t.Fatalf("%s: engine %q, want %q", name, doc.Engine, Engine)
		}
		return doc
	}

	// Straight-line use-after-frees: DEFINITE.
	for _, name := range []string{"quickstart", "webserver"} {
		if doc := load(name); doc.Stats.Definite == 0 {
			t.Errorf("%s: expected a DEFINITE finding", name)
		}
	}

	// The running example: the head is separated from the freed tail
	// nodes, so the Figure 1 uses are witnessed POSSIBLE and the head is
	// elidable.
	if doc := load("compiler"); doc.Stats.Definite != 0 || doc.Stats.Possible == 0 || doc.Stats.Elidable != 1 {
		t.Errorf("compiler: want 0 definite, possible>0, 1 elidable, got %+v", doc.Stats)
	}

	// The shared-helper precision story: the result record is proven never
	// freed although it flows through the same helper as the freed tree.
	if doc := load("olden"); doc.Stats.Elidable != 1 || doc.Stats.Definite != 0 {
		t.Errorf("olden: want 1 elidable and 0 definite, got %+v", doc.Stats)
	}

	// Every non-PROVEN finding across the corpus carries a witness that
	// starts at a free and ends at the use.
	for _, name := range corpusNames {
		doc := load(name)
		for _, f := range doc.Findings {
			if f.Verdict == "PROVEN-SAFE" {
				continue
			}
			if len(f.Witness) < 2 {
				t.Errorf("%s: %s finding at %s has no witness", name, f.Verdict, f.Site)
				continue
			}
			if f.Witness[0].Role != "free" || f.Witness[len(f.Witness)-1].Role != "use" {
				t.Errorf("%s: witness at %s runs %s..%s, want free..use",
					name, f.Site, f.Witness[0].Role, f.Witness[len(f.Witness)-1].Role)
			}
		}
	}
}
