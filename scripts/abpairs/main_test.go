package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSummarise: medians, IQRs, ratios and pairs won come out of the run
// lines as the protocol defines them, in each metric's better direction,
// and an unpaired run is left out.
func TestSummarise(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{
  "end_to_end": [{"name": "cpu", "better": "lower"}, {"name": "rps", "better": "higher"}],
  "per_layer": [{"name": "parse", "better": "lower"}]
}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(side, pair string, cpu, rps string, failed string) string {
		return side + "\t" + pair + "\t" + `{"correct":true,"attempted":10,"failed":` + failed +
			`,"metrics":{"cpu":{"value":` + cpu + `,"unit":"ms"},"rps":{"value":` + rps + `,"unit":"1/s"},"parse":{"value":1,"unit":"us"}}}`
	}
	in := strings.Join([]string{
		run("base", "1", "2.0", "100", "0"), run("head", "1", "1.8", "101", "0"),
		run("head", "2", "1.9", "99", "1"), run("base", "2", "2.2", "103", "0"),
		run("base", "3", "2.1", "98", "0"), run("head", "3", "2.3", "102", "0"),
		run("base", "4", "9.9", "1", "0"), // no head run: not a pair
	}, "\n") + "\n"
	rep, err := summarise(strings.NewReader(in), bench)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 3 || rep.Failed["head"] != 1 || rep.Failed["base"] != 0 {
		t.Fatalf("pairs %d failed %v, want 3 pairs and one failed head operation", rep.Pairs, rep.Failed)
	}
	cpu := rep.Metrics["cpu"]
	if cpu.Base.Median != 2.1 || cpu.Head.Median != 1.9 || cpu.HeadWins != 2 || cpu.Pairs != 3 || !cpu.EndToEnd {
		t.Fatalf("cpu = %+v, want medians 2.1 and 1.9, head winning 2 of 3 end-to-end pairs", cpu)
	}
	if d := cpu.Base.IQR - 0.1; d > 1e-9 || d < -1e-9 {
		t.Fatalf("cpu base IQR %v, want 0.1", cpu.Base.IQR)
	}
	if !cpu.ShiftExceedsBaseIQR {
		t.Fatal("cpu: a 0.2 ms drop against a 0.1 ms base IQR should exceed it")
	}
	rps := rep.Metrics["rps"]
	if rps.HeadWins != 2 || rps.ShiftExceedsBaseIQR || rps.Ratio != 1.01 {
		t.Fatalf("rps = %+v, want 2 wins for higher values, ratio 1.01, shift inside the base IQR", rps)
	}
	if p := rep.Metrics["parse"]; p.EndToEnd || p.HeadWins != 0 {
		t.Fatalf("parse = %+v, want a per-layer metric with no wins on ties", p)
	}
}
