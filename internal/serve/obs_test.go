package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestHealthzJSON is the satellite-3 regression: /healthz speaks JSON with
// the drain state and queue depth, flips to "draining" after SetDraining,
// and stays 200 throughout (draining is a routing hint, not a failure).
func TestHealthzJSON(t *testing.T) {
	s := New(Config{Workers: 3, QueueDepth: 7})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() (int, healthBody) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q", ct)
		}
		var b healthBody
		if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}

	code, b := get()
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if b.Type != "health" || b.Status != "ok" || b.Draining {
		t.Fatalf("fresh server health = %+v", b)
	}
	if b.Workers != 3 {
		t.Fatalf("workers = %d, want 3", b.Workers)
	}

	s.SetDraining(true)
	code, b = get()
	if code != http.StatusOK {
		t.Fatalf("draining status = %d, want 200", code)
	}
	if b.Status != "draining" || !b.Draining {
		t.Fatalf("draining health = %+v", b)
	}
	s.SetDraining(false)
	if _, b = get(); b.Status != "ok" || b.Draining {
		t.Fatalf("undrained health = %+v", b)
	}
}

// TestReplaySpansMatchesOffline: POST /replay?spans=1 returns the replay
// NDJSON followed by the span stream and reconciliation trailer, all
// byte-identical to the offline span-traced replay.
func TestReplaySpansMatchesOffline(t *testing.T) {
	tr := faultedTrace(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/replay?spans=1", "text/plain", bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s: %s", resp.Status, body)
	}
	want, err := offlineNDJSON(tr, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("spans response diverges from offline:\n%s\nvs\n%s", body, want)
	}
	if !bytes.Contains(body, []byte(`"type":"span"`)) ||
		!bytes.Contains(body, []byte(`"type":"spans"`)) {
		t.Fatalf("spans response missing span lines or trailer:\n%s", body)
	}

	// The plain endpoint must be unchanged by the span option existing.
	respPlain, err := http.Post(ts.URL+"/replay", "text/plain", bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	plain := readAll(t, respPlain)
	if bytes.Contains(plain, []byte(`"type":"span"`)) {
		t.Fatal("untraced replay response carries span lines")
	}
}

// TestTraceIDHeader: every replay response carries X-Pg-Trace-Id; a
// client-supplied id is echoed back verbatim.
func TestTraceIDHeader(t *testing.T) {
	tr := faultedTrace(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postReplay(t, ts.URL, tr)
	if id := resp.Header.Get("X-Pg-Trace-Id"); !strings.HasPrefix(id, "pg-") {
		t.Fatalf("server-assigned trace id = %q", id)
	}

	req, err := http.NewRequest("POST", ts.URL+"/replay", bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pg-Trace-Id", "client-chose-this")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp2)
	if id := resp2.Header.Get("X-Pg-Trace-Id"); id != "client-chose-this" {
		t.Fatalf("client trace id not echoed: %q", id)
	}
}

// TestDebugSpansRing: finished replays appear in GET /debug/spans as
// {"type":"request"} NDJSON records carrying the trace id, span count, and
// the exact leaf/charged cycle reconciliation.
func TestDebugSpansRing(t *testing.T) {
	tr := faultedTrace(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest("POST", ts.URL+"/replay?spans=1", bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pg-Trace-Id", "debug-ring-probe")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}

	dresp, err := http.Get(ts.URL + "/debug/spans")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, dresp)
	var found *debugEntry
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var e debugEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad /debug/spans line %q: %v", line, err)
		}
		if e.Type != "request" {
			t.Fatalf("unexpected record type %q", e.Type)
		}
		if e.TraceID == "debug-ring-probe" {
			found = &e
		}
	}
	if found == nil {
		t.Fatalf("traced request missing from /debug/spans:\n%s", body)
	}
	if found.Path != "/replay" || found.Spans == 0 || found.ChargedCycles == 0 {
		t.Fatalf("debug record incomplete: %+v", found)
	}
	if found.LeafCycles != found.ChargedCycles {
		t.Fatalf("debug record fails reconciliation: leaf=%d charged=%d",
			found.LeafCycles, found.ChargedCycles)
	}
}

// TestMetricsBuildInfo: the /metrics exposition carries the satellite-1
// build-info gauge and uptime series.
func TestMetricsBuildInfo(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	if !strings.Contains(body, "pg_build_info{") {
		t.Fatalf("/metrics missing pg_build_info:\n%s", body)
	}
	if !strings.Contains(body, "go_version=") {
		t.Fatal("/metrics pg_build_info missing go_version label")
	}
	if !strings.Contains(body, "pg_uptime_seconds") {
		t.Fatal("/metrics missing pg_uptime_seconds")
	}
}
