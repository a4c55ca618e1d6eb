package trace

import (
	"strings"
	"testing"

	"repro/pageguard"
)

// TestDetectionCarriesReportWithTraceLines checks that a replayed trap's
// forensic report carries the trace's event provenance: the lines that
// allocated and freed the object, plus "trace:N" site labels.
func TestDetectionCarriesReportWithTraceLines(t *testing.T) {
	events, err := Parse(strings.NewReader(`
a 1 64
f 1
r 1 8
f 1
`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(pageguard.NewMachine(pageguard.WithSiteProfile()), events)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(rep.Detections) != 2 {
		t.Fatalf("detections = %v", rep.Detections)
	}

	// Detection 1: stale read on line 4 of an object allocated on line 2,
	// freed on line 3.
	r0 := rep.Detections[0].Report
	if r0 == nil {
		t.Fatal("read detection carries no report")
	}
	if r0.Kind != pageguard.TrapRead || r0.Offset != 8 {
		t.Errorf("read report = kind %q offset %d", r0.Kind, r0.Offset)
	}
	if r0.AllocLine != 2 || r0.FreeLine != 3 {
		t.Errorf("read provenance = alloc line %d, free line %d, want 2/3", r0.AllocLine, r0.FreeLine)
	}
	if r0.UseSite != "trace:4" {
		t.Errorf("use site = %q, want trace:4", r0.UseSite)
	}
	if r0.AllocSite != "trace:2" || r0.FreeSite != "trace:3" {
		t.Errorf("sites = %q/%q/%q", r0.UseSite, r0.AllocSite, r0.FreeSite)
	}
	text := r0.String()
	if !strings.Contains(text, "allocated: at trace:2 (trace line 2)") ||
		!strings.Contains(text, "freed:     at trace:3 (trace line 3)") {
		t.Errorf("rendered report lacks trace provenance:\n%s", text)
	}

	// Detection 2: double free on line 5.
	r1 := rep.Detections[1].Report
	if r1 == nil || r1.Kind != pageguard.TrapDoubleFree {
		t.Fatalf("double-free report = %+v", r1)
	}
	if r1.AllocLine != 2 || r1.FreeLine != 3 {
		t.Errorf("double-free provenance = %d/%d", r1.AllocLine, r1.FreeLine)
	}

	// The replay's profile attributes every charged cycle to trace lines.
	if rep.Profile == nil {
		t.Fatal("replay carries no profile")
	}
	var found bool
	for _, s := range rep.Profile.Sites() {
		if s.Site == "trace:2" && s.Allocs == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("profile lacks trace:2 alloc site: %v", rep.Profile.Sites())
	}
}
