package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/cliff"
	"repro/trace"
)

// decodeError asserts a response carries the documented JSON error schema
// and returns the decoded body.
func decodeError(t *testing.T, resp *http.Response, body []byte) ErrorBody {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type = %q, want application/json (body %s)", ct, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not JSON: %v (body %s)", err, body)
	}
	if eb.Type != "error" {
		t.Fatalf("error body type = %q, want \"error\"", eb.Type)
	}
	if eb.Status != resp.StatusCode {
		t.Fatalf("error body status = %d, HTTP status = %d", eb.Status, resp.StatusCode)
	}
	if eb.Error == "" {
		t.Fatal("error body has empty detail")
	}
	return eb
}

// TestSheddingResponsesCarryStructuredErrors drives every rung of the
// shedding ladder and asserts the machine-readable error body: code, status
// echo, and (for 429) the retry hint.
func TestSheddingResponsesCarryStructuredErrors(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	// 400 bad-trace.
	resp, body := post("/replay", "not a trace\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad trace: status %s", resp.Status)
	}
	if eb := decodeError(t, resp, body); eb.Code != ErrCodeBadTrace {
		t.Fatalf("bad trace code = %q", eb.Code)
	}

	// 400 bad-trace for an r/w offset that would wrap onto the remap
	// header, with the offending line named.
	for _, src := range []string{"a 1 64\nw 1 18446744073709551608\nf 1\n", "a 1 64\nr 1 18446744073709551608\n"} {
		resp, body = post("/replay", src)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wrapping offset: status %s", resp.Status)
		}
		if eb := decodeError(t, resp, body); eb.Code != ErrCodeBadTrace || !strings.Contains(eb.Error, "line 2") {
			t.Fatalf("wrapping offset: code %q, error %q", eb.Code, eb.Error)
		}
	}

	// 413 body-too-large.
	resp, body = post("/replay", strings.Repeat("# padding\n", 64))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized: status %s", resp.Status)
	}
	if eb := decodeError(t, resp, body); eb.Code != ErrCodeBodyTooLarge {
		t.Fatalf("oversized code = %q", eb.Code)
	}

	// 422 replay-failed (semantically broken trace).
	resp, body = post("/replay", "f 7\n")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("replay failed: status %s", resp.Status)
	}
	if eb := decodeError(t, resp, body); eb.Code != ErrCodeReplayFailed {
		t.Fatalf("replay failed code = %q", eb.Code)
	}

	// 404s: unknown workload and unknown corpus trace.
	resp, body = post("/workload/nonesuch", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown workload: status %s", resp.Status)
	}
	if eb := decodeError(t, resp, body); eb.Code != ErrCodeUnknownWorkload {
		t.Fatalf("unknown workload code = %q", eb.Code)
	}
	resp, body = post("/corpus/nonesuch", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown corpus: status %s", resp.Status)
	}
	if eb := decodeError(t, resp, body); eb.Code != ErrCodeUnknownTrace {
		t.Fatalf("unknown corpus code = %q", eb.Code)
	}

	// 400 unknown-mode.
	resp, body = post("/workload/gzip?mode=warp", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown mode: status %s", resp.Status)
	}
	if eb := decodeError(t, resp, body); eb.Code != ErrCodeUnknownMode {
		t.Fatalf("unknown mode code = %q", eb.Code)
	}

	// 429 queue-full with the retry hint in both header and body.
	for i := 0; i < cap(s.queue); i++ {
		s.queue <- struct{}{}
	}
	resp, body = post("/replay", "a 1 64\nf 1\n")
	for i := 0; i < cap(s.queue); i++ {
		<-s.queue
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue full: status %s", resp.Status)
	}
	eb := decodeError(t, resp, body)
	if eb.Code != ErrCodeQueueFull {
		t.Fatalf("queue full code = %q", eb.Code)
	}
	if eb.RetryAfter != 1 || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("retry hint: body=%d header=%q, want 1", eb.RetryAfter, resp.Header.Get("Retry-After"))
	}

	// 503 timeout.
	s2 := New(Config{Workers: 1, Timeout: 10 * time.Millisecond})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	s2.workers <- struct{}{}
	resp2, err := http.Post(ts2.URL+"/replay", "text/plain", strings.NewReader("a 1 64\nf 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	<-s2.workers
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timeout: status %s", resp2.Status)
	}
	if eb := decodeError(t, resp2, body2); eb.Code != ErrCodeTimeout {
		t.Fatalf("timeout code = %q", eb.Code)
	}
}

// TestBodyReadErrors: only a body over the limit is a 413. A body that
// fails mid-stream (a client abort, a truncated chunked upload) is a 400
// bad-trace.
func TestBodyReadErrors(t *testing.T) {
	h := New(Config{}).Handler()
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
		code   string
	}{
		{"truncated", io.MultiReader(strings.NewReader("a 1 64\nw 1"), iotest.ErrReader(io.ErrUnexpectedEOF)),
			http.StatusBadRequest, ErrCodeBadTrace},
		{"over limit", bytes.NewReader(bytes.Repeat([]byte("# padding\n"), 1<<17)),
			http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/replay", tc.body))
		resp := rec.Result()
		body := rec.Body.Bytes()
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %s, want %d: %s", tc.name, resp.Status, tc.status, body)
		}
		if eb := decodeError(t, resp, body); eb.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, eb.Code, tc.code)
		}
	}
}

// TestCorpusEndpointsMatchDirectReplay lists the corpus over HTTP, replays
// each entry via POST /corpus/{name}, and asserts the body is byte-identical
// to POSTing the committed trace bytes at /replay — the served corpus is the
// same corpus. Both go down one replay path under one cache key, so the
// /replay POST is a hit on the entry /corpus/{name} made.
func TestCorpusEndpointsMatchDirectReplay(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/corpus")
	if err != nil {
		t.Fatal(err)
	}
	var listing []corpusEntry
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing) != len(cliff.Corpus()) {
		t.Fatalf("corpus listing has %d entries, want %d", len(listing), len(cliff.Corpus()))
	}

	for _, c := range cliff.Corpus() {
		raw, err := cliff.CorpusBytes(c)
		if err != nil {
			t.Fatal(err)
		}
		viaName, err := http.Post(ts.URL+"/corpus/"+c.Name, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		nameBody, _ := io.ReadAll(viaName.Body)
		viaName.Body.Close()
		if viaName.StatusCode != http.StatusOK {
			t.Fatalf("corpus %s: status %s: %s", c.Name, viaName.Status, nameBody)
		}
		viaReplay, err := http.Post(ts.URL+"/replay", "text/plain", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		replayBody, _ := io.ReadAll(viaReplay.Body)
		viaReplay.Body.Close()
		if viaReplay.StatusCode != http.StatusOK {
			t.Fatalf("corpus %s via /replay: status %s: %s", c.Name, viaReplay.Status, replayBody)
		}
		if got := viaReplay.Header.Get("X-Pg-Cache"); got != "hit" {
			t.Errorf("corpus %s via /replay after /corpus/{name}: X-Pg-Cache %q, want hit", c.Name, got)
		}
		if !bytes.Equal(nameBody, replayBody) {
			t.Fatalf("corpus %s: /corpus/{name} and /replay bodies diverge", c.Name)
		}
		// And both must equal the offline replay of the committed bytes.
		tf, err := trace.ParseFile(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
		if err != nil {
			t.Fatal(err)
		}
		var offline bytes.Buffer
		if err := trace.WriteNDJSON(&offline, rep); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(nameBody, offline.Bytes()) {
			t.Fatalf("corpus %s: served body diverges from offline replay", c.Name)
		}
	}
}

// TestVABudgetErrorMatchesOffline: a trace whose VA budget cannot cover the
// fixed stack+globals pages is a 422 whose detail carries the error text
// pgtrace's fresh-machine replay reports. The request counts as one cache
// miss, and neither the old fallback series nor the fork counter exists.
func TestVABudgetErrorMatchesOffline(t *testing.T) {
	tr := []byte("!vabudget 100\na 1 64\nf 1\n")
	_, offlineErr := offlineNDJSON(tr, false)
	if offlineErr == nil {
		t.Fatal("offline replay accepted a 100-page VA budget")
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, body := postReplay(t, ts.URL, tr)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %s, want 422: %s", resp.Status, body)
	}
	eb := decodeError(t, resp, body)
	if eb.Code != ErrCodeReplayFailed || eb.Error != "replay failed: "+offlineErr.Error() {
		t.Fatalf("code %q, error %q; want %q, %q", eb.Code, eb.Error, ErrCodeReplayFailed, "replay failed: "+offlineErr.Error())
	}
	host := s.HostSnapshot()
	if _, ok := host.Counters["pgserved_snapshot_fallbacks_total"]; ok {
		t.Error("pgserved_snapshot_fallbacks_total is still exported")
	}
	if _, ok := host.Counters["pgserved_snapshot_forks_total"]; ok {
		t.Error("pgserved_snapshot_forks_total is still exported")
	}
	if got := host.Counters["pg_cache_misses_total"]; got != 1 {
		t.Errorf("pg_cache_misses_total = %d, want 1", got)
	}
}
