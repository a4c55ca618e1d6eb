package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cliff"
)

// faultedTrace loads the bundled fault-annotated trace (produced by a
// pgtrace -record run): a '!faults' schedule, a UAF, a double free, and two
// 'x' verification records.
func faultedTrace(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile("../../trace/testdata/faulted.trace")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// slowTrace builds a trace big enough that its replay takes real wall-clock
// time (used to hold workers busy in shedding/timeout tests).
func slowTrace(pairs int) []byte {
	var b bytes.Buffer
	for i := 1; i <= pairs; i++ {
		fmt.Fprintf(&b, "a %d 64\nw %d 0\nr %d 0\nf %d\n", i, i, i, i)
	}
	return b.Bytes()
}

func postReplay(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/replay", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestReplayEndpointMatchesOffline: the HTTP response body is byte-identical
// to the offline replay of the same trace — including the fault schedule,
// its 'x' verification, the detections, and the forensic reports.
func TestReplayEndpointMatchesOffline(t *testing.T) {
	tr := faultedTrace(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postReplay(t, ts.URL, tr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s: %s", resp.Status, body)
	}
	want, err := offlineNDJSON(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("HTTP replay diverges from offline:\n%s\nvs\n%s", body, want)
	}
	if !bytes.Contains(body, []byte(`"type":"detection"`)) ||
		!bytes.Contains(body, []byte(`"type":"fault"`)) {
		t.Fatalf("faulted trace response missing detections or faults:\n%s", body)
	}
}

// simulatedAll asserts that s simulated every one of distinct bodies: its
// cache missed once per body, so concurrent requests replayed rather than
// only being answered from the cache.
func simulatedAll(t *testing.T, s *Server, distinct int) {
	t.Helper()
	if m := s.HostSnapshot().Counters["pg_cache_misses_total"]; m != uint64(distinct) {
		t.Fatalf("pg_cache_misses_total = %d, want %d (one simulation per distinct body)", m, distinct)
	}
}

// TestServeDeterminismAcrossParallelism is the concurrency-parity gate: the
// same distinct trace variants replayed through a 1-worker server and an
// 8-worker server (the latter under concurrent clients) produce
// byte-identical NDJSON bodies on every request and byte-identical merged
// replay-metrics snapshots. Every variant is simulated, not served from the
// cache. It is the serving mirror of the harness's -j1-vs-j8 parity tests,
// and must stay clean under -race.
func TestServeDeterminismAcrossParallelism(t *testing.T) {
	tr := faultedTrace(t)
	const requests = 12
	variants, err := TraceVariants(tr, requests)
	if err != nil {
		t.Fatal(err)
	}

	runAt := func(workers, clients int) (bodies [][]byte, replayJSON []byte, metricsJSON []byte) {
		s := New(Config{Workers: workers, QueueDepth: 64})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		rep, err := RunLoad(LoadOptions{
			URL: ts.URL, Traces: variants, Requests: requests, Concurrency: clients,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v (%v)", workers, err, rep)
		}
		if rep.Requests != requests || rep.Mismatches != 0 {
			t.Fatalf("workers=%d: %v", workers, rep)
		}
		simulatedAll(t, s, requests)
		// One more replay outside the load run, of the base trace, keeping
		// the body for the cross-parallelism comparison (requests+1 distinct
		// bodies per server).
		resp, body := postReplay(t, ts.URL, tr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %s", resp.Status)
		}
		simulatedAll(t, s, requests+1)
		var buf bytes.Buffer
		if err := s.ReplaySnapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		httpResp, err := http.Get(ts.URL + "/metrics/replay.json")
		if err != nil {
			t.Fatal(err)
		}
		viaHTTP, err := io.ReadAll(httpResp.Body)
		httpResp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return [][]byte{body}, buf.Bytes(), viaHTTP
	}

	b1, snap1, http1 := runAt(1, 1)
	b8, snap8, http8 := runAt(8, 8)

	if !bytes.Equal(b1[0], b8[0]) {
		t.Fatalf("NDJSON bodies diverge between parallelism 1 and 8:\n%s\nvs\n%s", b1[0], b8[0])
	}
	if !bytes.Equal(snap1, snap8) {
		t.Fatalf("merged replay metrics diverge between parallelism 1 and 8:\n%s\nvs\n%s", snap1, snap8)
	}
	if !bytes.Equal(http1, snap1) || !bytes.Equal(http8, snap8) {
		t.Fatalf("/metrics/replay.json diverges from ReplaySnapshot")
	}
}

// TestLoadSustainsSixtyFourConcurrent is the acceptance bar: 64 concurrent
// clients each complete a replay of a distinct variant with byte-identical
// results under the default worker pool (sheds are retried by the load
// generator, so every request eventually lands), and every variant is
// simulated.
func TestLoadSustainsSixtyFourConcurrent(t *testing.T) {
	variants, err := TraceVariants(faultedTrace(t), 64)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rep, err := RunLoad(LoadOptions{URL: ts.URL, Traces: variants, Requests: 64, Concurrency: 64})
	if err != nil {
		t.Fatalf("load run failed: %v (%v)", err, rep)
	}
	if rep.Requests != 64 || rep.Mismatches != 0 {
		t.Fatalf("load report = %v", rep)
	}
	simulatedAll(t, s, 64)
}

// TestQueueFullShedsWith429: when every worker slot and every queue slot is
// taken, the next request is shed immediately with 429 and a Retry-After
// hint — the server never queues unboundedly.
func TestQueueFullShedsWith429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the whole building: every admission token.
	for i := 0; i < cap(s.queue); i++ {
		s.queue <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.queue); i++ {
			<-s.queue
		}
	}()

	resp, body := postReplay(t, ts.URL, []byte("a 1 64\nf 1\n"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %s: %s", resp.Status, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After hint")
	}
	if got := s.HostSnapshot().Counters["pgserved_shed_total"]; got != 1 {
		t.Fatalf("pgserved_shed_total = %d, want 1", got)
	}
}

// TestRequestBudgetExceeded: a request that cannot get a worker inside its
// budget is failed with 503 and counted as a timeout.
func TestRequestBudgetExceeded(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Timeout: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold the only worker slot so the request waits out its budget.
	s.workers <- struct{}{}
	defer func() { <-s.workers }()

	resp, body := postReplay(t, ts.URL, []byte("a 1 64\nf 1\n"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %s: %s", resp.Status, body)
	}
	if got := s.HostSnapshot().Counters["pgserved_timeouts_total"]; got != 1 {
		t.Fatalf("pgserved_timeouts_total = %d, want 1", got)
	}
}

// TestExpiredBudgetStartsNoReplay: the budget runs from admission, so with
// a one-nanosecond budget it has run out by the time a request's body is
// read and parsed. Every request is answered 503 timeout before it reaches
// the cache or a worker slot: no replay starts and no miss is counted, even
// though a slot is free each time.
func TestExpiredBudgetStartsNoReplay(t *testing.T) {
	s := New(Config{Timeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 200; i++ {
		resp, body := postReplay(t, ts.URL, danglingTrace(i))
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %s: %s", i, resp.Status, body)
		}
		if eb := decodeError(t, resp, body); eb.Code != ErrCodeTimeout {
			t.Fatalf("request %d: code %q, want %q", i, eb.Code, ErrCodeTimeout)
		}
	}
	host := s.HostSnapshot()
	if got := host.Counters["pgserved_replays_total"]; got != 0 {
		t.Errorf("pgserved_replays_total = %d, want 0", got)
	}
	if got := host.Counters["pg_cache_misses_total"]; got != 0 {
		t.Errorf("pg_cache_misses_total = %d, want 0", got)
	}
	if got := host.Counters["pgserved_timeouts_total"]; got != 200 {
		t.Errorf("pgserved_timeouts_total = %d, want 200", got)
	}
}

// TestDrainWaitsForAbandonedReplays: a replay whose handler timed out keeps
// running in the background; Drain must wait it out, and its metrics still
// land in the merged snapshot (no replay work is lost on shutdown).
func TestDrainWaitsForAbandonedReplays(t *testing.T) {
	s := New(Config{Workers: 1, Timeout: 5 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three lines key in microseconds, so the budget runs out in the replay
	// and not before it starts: mapping a 256 MiB object's 65,536 pages
	// takes about 0.1 s (0.9 s under -race). A long trace would spend the
	// budget in the parse and cache key, and never start its replay.
	resp, _ := postReplay(t, ts.URL, []byte("a 1 268435456\nw 1 0\nf 1\n"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		// On a very fast machine the replay may beat the budget; that is
		// not a drain scenario, so skip rather than flake.
		t.Skipf("replay finished inside the 5ms budget (status %s)", resp.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if m := s.HostSnapshot().Counters["pg_cache_misses_total"]; m != 1 {
		t.Fatalf("%d misses, want 1: the budget ran out before the replay began", m)
	}
	// The abandoned replay completed in the background: its process
	// snapshot was merged, and it no longer counts as abandoned.
	snap := s.ReplaySnapshot()
	if len(snap.Counters) == 0 {
		t.Fatal("abandoned replay's metrics never merged")
	}
	if got := s.HostSnapshot().Gauges["pgserved_abandoned_replays"]; got != 0 {
		t.Fatalf("pgserved_abandoned_replays = %v after Drain, want 0", got)
	}
}

// TestAbandonedReplaysGauge: a run that outlives its request's budget is
// abandoned and counted in pgserved_abandoned_replays while it holds its
// worker slot; when it finishes the gauge returns to 0. The budget ends the
// moment the run has started, so the run is abandoned however slow the
// host is.
func TestAbandonedReplaysGauge(t *testing.T) {
	s := New(Config{})
	abandoned := func() float64 { return s.HostSnapshot().Gauges["pgserved_abandoned_replays"] }
	started, finish := make(chan struct{}), make(chan struct{})
	ctx, expire := context.WithCancel(context.Background())
	defer expire()
	go func() {
		<-started
		expire()
	}()
	// A replay that runs until the test lets it finish: far past the budget.
	_, err := s.runIsolated(ctx, func() (any, error) {
		close(started)
		<-finish
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runIsolated = %v, want the expired budget's error", err)
	}
	if got := abandoned(); got != 1 {
		t.Fatalf("pgserved_abandoned_replays = %v with the run abandoned, want 1", got)
	}
	close(finish)
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := abandoned(); got != 0 {
		t.Fatalf("pgserved_abandoned_replays = %v after Drain, want 0", got)
	}
}

// TestWorkloadEndpoint: named workloads run server-side; the paper's running
// example must come back with its planted dangling-pointer detection and a
// full forensic report.
func TestWorkloadEndpoint(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/workload/running-example", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s: %s", resp.Status, body)
	}
	for _, want := range []string{`"type":"result"`, `"workload":"running-example"`, `"mode":"detect"`, `"report"`, "dangling"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("workload response missing %q:\n%s", want, body)
		}
	}

	// Identical requests are byte-identical (fresh machine per request).
	resp2, err := http.Post(ts.URL+"/workload/running-example", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(body, body2) {
		t.Fatal("workload responses not deterministic")
	}

	resp3, err := http.Post(ts.URL+"/workload/nonexistent", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload status = %s, want 404", resp3.Status)
	}
}

// TestMetricsEndpoint: /metrics carries the host-side pgserved_* series and
// the merged pg_* series of finished replays in Prometheus text form.
func TestMetricsEndpoint(t *testing.T) {
	tr := faultedTrace(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, _ := postReplay(t, ts.URL, tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status = %s", resp.Status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %s", resp.Status)
	}
	for _, want := range []string{
		"pgserved_replays_total 1",
		"pg_cache_misses_total 1",
		"pgserved_requests_total{endpoint=\"replay\"} 1",
		"pgserved_queue_depth",
		"pgserved_request_micros_count 1",
		"pg_dangling_detected_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestStaticModeMetrics: mode=static runs under the proof-guided
// configuration and publishes the workload's static-analysis gauges on
// /metrics — once, however many times the workload is re-run.
func TestStaticModeMetrics(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/workload/treeadd?mode=static", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %s: %s", resp.Status, body)
		}
		if !strings.Contains(string(body), `"mode":"static"`) {
			t.Fatalf("response missing static mode:\n%s", body)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`pg_static_elided_total{workload="treeadd"} 1`,
		`pg_static_sites_total{verdict="proven-safe",workload="treeadd"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Exactly one series line for the elided gauge: re-runs must not
	// duplicate or inflate it.
	if n := strings.Count(text, `pg_static_elided_total{workload="treeadd"}`); n != 1 {
		t.Fatalf("elided gauge appears %d times, want 1", n)
	}
}

// TestOversizedBodyRejected: rung 1 of the shedding ladder.
func TestOversizedBodyRejected(t *testing.T) {
	s := New(Config{MaxBodyBytes: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postReplay(t, ts.URL, slowTrace(100))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %s: %s", resp.Status, body)
	}
}

// TestBadTraceRejected: malformed traces and bad fault specs are 4xx, not
// replay attempts.
func TestBadTraceRejected(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := postReplay(t, ts.URL, []byte("bogus event stream"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed trace status = %s, want 400", resp.Status)
	}
	// An event referencing an id the trace never allocated is a semantic
	// replay error: 422.
	resp2, _ := postReplay(t, ts.URL, []byte("r 9 0\n"))
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("semantic error status = %s, want 422", resp2.Status)
	}

	// A bad ?faults= or ?sampling= override is a 400 naming the parameter,
	// answered before admission: with every admission slot taken it is
	// still a 400, not a 429. So is a well-formed ?faults= or ?guards=1 on
	// a corpus trace, which keeps its committed directives.
	for i := 0; i < cap(s.queue); i++ {
		s.queue <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.queue); i++ {
			<-s.queue
		}
	}()
	corpus := "/corpus/" + cliff.Corpus()[0].Name
	for _, tc := range []struct{ path, param string }{
		{"/replay?faults=bogus", "?faults="},
		{"/replay?sampling=rate=abc", "?sampling="},
		{corpus + "?sampling=rate=abc", "?sampling="},
		{corpus + "?faults=seed=7%3Bmprotect:after=0,times=2", "?faults="},
		{corpus + "?guards=1", "?guards="},
		// An unescaped ';' does not parse as a query: the schedule would
		// be dropped, so the request is refused instead.
		{corpus + "?faults=seed=7;mprotect:after=0,times=2", "?faults="},
		{"/replay?faults=seed=7;mprotect:after=0,times=2", "?faults="},
	} {
		resp, err := http.Post(ts.URL+tc.path, "text/plain", strings.NewReader("a 1 64\nf 1\n"))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %s, want 400: %s", tc.path, resp.Status, body)
		}
		if eb := decodeError(t, resp, body); eb.Code != ErrCodeBadTrace || !strings.Contains(eb.Error, tc.param) {
			t.Fatalf("POST %s: code %q, error %q, want bad-trace naming %s", tc.path, eb.Code, eb.Error, tc.param)
		}
	}
}
