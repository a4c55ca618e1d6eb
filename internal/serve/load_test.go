package serve

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/trace"
)

// TestRetryDelayFallback pins the retry-backoff contract: a parsable
// Retry-After hint wins when shorter than the linear backoff, an absent or
// unparsable hint falls back to a seeded jitter over [d/2, 3d/2), the jitter
// sequence is deterministic per seed, and everything caps at one second.
func TestRetryDelayFallback(t *testing.T) {
	// Parsable hint shorter than the backoff: the server's word wins.
	if got := retryDelay("1", 200, nil); got != time.Second {
		t.Errorf("hinted delay = %v, want 1s", got)
	}
	// Hint longer than the linear backoff: keep the (smaller) backoff.
	if got := retryDelay("30", 0, nil); got != 10*time.Millisecond {
		t.Errorf("long hint overrode the smaller backoff: %v", got)
	}
	// No rng and no hint: plain linear backoff (legacy callers).
	if got := retryDelay("", 2, nil); got != 30*time.Millisecond {
		t.Errorf("hintless no-rng delay = %v, want 30ms", got)
	}
	// Unparsable hints take the jitter path and stay inside [d/2, 3d/2).
	for _, header := range []string{"", "soon", "-1", "0", "Wed, 21 Oct 2015 07:28:00 GMT"} {
		rng := rand.New(rand.NewSource(7))
		for attempt := 0; attempt < 8; attempt++ {
			d := 10 * time.Millisecond * time.Duration(attempt+1)
			got := retryDelay(header, attempt, rng)
			if got < d/2 || got >= d/2+d {
				t.Errorf("jittered delay %v for header %q attempt %d outside [%v, %v)",
					got, header, attempt, d/2, d/2+d)
			}
		}
	}
	// Determinism: same seed, same jitter sequence.
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for attempt := 0; attempt < 16; attempt++ {
		if da, db := retryDelay("", attempt, a), retryDelay("", attempt, b); da != db {
			t.Fatalf("attempt %d: same-seed delays diverged: %v vs %v", attempt, da, db)
		}
	}
	// The cap holds on the jitter path too.
	rng := rand.New(rand.NewSource(1))
	for attempt := 195; attempt < 200; attempt++ {
		if got := retryDelay("", attempt, rng); got > time.Second {
			t.Fatalf("attempt %d delay %v exceeds the 1s cap", attempt, got)
		}
	}
}

// TestLoadRetriesHintlessShedding is the regression test for the -load retry
// path when shedding responses carry no parsable Retry-After: a stub server
// sheds the first attempts with bare 503 and 429 responses, and the load run
// must retry through them (jittered fallback, not an error) and still verify
// byte parity on the eventual 200.
func TestLoadRetriesHintlessShedding(t *testing.T) {
	traceText := []byte(uafTrace)
	want, err := offlineNDJSON(traceText, false)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			// 503 with no Retry-After at all (a timed-out request).
			w.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			// 429 with an unparsable hint (mangled by a proxy).
			w.Header().Set("Retry-After", "soon")
			w.WriteHeader(http.StatusTooManyRequests)
		case 3:
			// 503 with an HTTP-date hint the client does not parse.
			w.Header().Set("Retry-After", "Wed, 21 Oct 2015 07:28:00 GMT")
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.Write(want)
		}
	}))
	defer stub.Close()

	rep, err := RunLoad(LoadOptions{
		URL:         stub.URL,
		Trace:       traceText,
		Requests:    2,
		Concurrency: 1,
		MaxRetries:  10,
	})
	if err != nil {
		t.Fatalf("load run failed through hintless shedding: %v", err)
	}
	if rep.Requests != 2 || rep.Mismatches != 0 {
		t.Fatalf("report = %+v, want 2 ok / 0 mismatches", rep)
	}
	if rep.Shed != 3 {
		t.Errorf("shed = %d, want 3 (each hintless shed retried)", rep.Shed)
	}

	// Exhausting retries against a permanently shedding server is still an
	// error, not a hang.
	always := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer always.Close()
	if _, err := RunLoad(LoadOptions{
		URL: always.URL, Trace: traceText, Requests: 1, Concurrency: 1, MaxRetries: 2,
	}); err == nil {
		t.Fatal("permanent 503 did not surface a retry-exhaustion error")
	}
}

// TestLoadRetriesSheds drives the bundled load generator at a saturated
// 1-slot server: sheds must occur and every request must still complete
// byte-identical — the end-to-end proof that 429 retries work against a
// real shedding server.
func TestLoadRetriesSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Deterministically saturate the server first — hold both admission
	// slots (1 executing + 1 queued) with slow replays and wait until a
	// probe observes the 429 — so the load run is guaranteed to shed even
	// on a starved CPU where its own clients never overlap.
	// Two distinct variants, so the second queues behind the first instead
	// of joining its cache flight.
	slow, err := TraceVariants(slowTrace(20000), 2)
	if err != nil {
		t.Fatal(err)
	}
	var hold sync.WaitGroup
	for i := 0; i < 2; i++ {
		hold.Add(1)
		go func(body []byte) {
			defer hold.Done()
			postReplay(t, ts.URL, body)
		}(slow[i])
	}
	deadline := time.Now().Add(10 * time.Second)
	// Probe only once both slow replays hold the admission slots: a probe
	// that got in first would take a slot itself and shed a slow replay.
	for len(s.queue) < cap(s.queue) {
		if time.Now().After(deadline) {
			t.Fatal("the slow replays never filled the server's admission slots")
		}
		time.Sleep(time.Millisecond)
	}
	for {
		resp, _ := postReplay(t, ts.URL, slowTrace(4))
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never saturated before the load run")
		}
	}

	rep, err := RunLoad(LoadOptions{
		URL: ts.URL, Trace: slowTrace(400), Requests: 24, Concurrency: 8,
	})
	hold.Wait()
	if err != nil {
		t.Fatalf("load run: %v (%v)", err, rep)
	}
	if rep.Requests != 24 || rep.Mismatches != 0 {
		t.Fatalf("load report: %v", rep)
	}
	if rep.Shed == 0 {
		t.Error("a 1-slot server under 8 clients shed nothing — the retry path was not exercised")
	}
}

// TestTraceVariantsDistinct: every derived variant parses and has a distinct
// canonical rendering (distinct cache key).
func TestTraceVariantsDistinct(t *testing.T) {
	variants, err := TraceVariants(slowTrace(10), 16)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, v := range variants {
		tf, err := trace.ParseFile(bytes.NewReader(v))
		if err != nil {
			t.Fatalf("variant %d does not parse: %v", i, err)
		}
		var b bytes.Buffer
		tf.Format(&b)
		if prev, dup := seen[b.String()]; dup {
			t.Errorf("variants %d and %d share a canonical rendering", prev, i)
		}
		seen[b.String()] = i
	}
}
