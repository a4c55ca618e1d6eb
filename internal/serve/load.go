package serve

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/pageguard"
	"repro/trace"
)

// The load generator (pgserved -load): fire a trace at a running server from
// many concurrent clients and assert every response is byte-identical to the
// offline replay — the serving path's end-to-end parity check, and the tool
// the smoke gate uses to prove the server sustains concurrent load while
// shedding (not queueing unboundedly) past saturation. It measures nothing:
// host wall-clock performance is perfbench's.

// LoadOptions configures a load run.
type LoadOptions struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Trace is the trace text to replay.
	Trace []byte
	// Traces, when non-empty, is a mix of distinct traces (Trace is then
	// ignored): request i sends Traces[i mod len(Traces)], so a run of at
	// least len(Traces) requests sends every one.
	Traces [][]byte
	// Requests is the total number of replays to complete (default 64).
	Requests int
	// Concurrency is the number of client goroutines (default 8).
	Concurrency int
	// MaxRetries bounds per-request retries after 429 and 503 responses
	// (default 50); each retry honours the server's Retry-After hint when
	// one is sent, capped at a second, and falls back to a jittered backoff,
	// seeded by the client's index, when the hint is absent or unparsable
	// (a 503 timeout carries no hint — retrying in lockstep would just
	// re-synchronize the thundering herd).
	MaxRetries int
	// Spans requests the span stream (?spans=1) and checks parity against
	// an offline span-traced replay — the body then carries the replay
	// NDJSON, one line per span, and the reconciliation trailer.
	Spans bool
	// Client overrides the HTTP client (default http.DefaultClient).
	Client *http.Client
}

// LoadReport summarizes a load run.
type LoadReport struct {
	// Requests is the number of replays that completed with 200.
	Requests int
	// Shed counts shedding responses — 429 and 503 (each was retried).
	Shed int
	// Mismatches counts responses whose body differed from the offline
	// replay (any nonzero count fails the run).
	Mismatches int
	// CacheHits counts 200 responses the server marked X-Pg-Cache: hit.
	CacheHits int
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration
}

func (r *LoadReport) String() string {
	return fmt.Sprintf("%d replays ok, %d shed+retried, %d mismatches in %s",
		r.Requests, r.Shed, r.Mismatches, r.Elapsed.Round(time.Millisecond))
}

// offlineNDJSON computes the expected response body: the same replay pgtrace
// performs, rendered through the same canonical NDJSON encoder. Every trace
// directive (faults, policy, vabudget, guards) is honoured, matching the
// server's replay machine. With spans on, the machine is span-traced and the
// expectation includes the span stream and reconciliation trailer.
func offlineNDJSON(traceText []byte, spans bool) ([]byte, error) {
	tf, err := trace.ParseFile(bytes.NewReader(traceText))
	if err != nil {
		return nil, err
	}
	var extra []pageguard.Option
	if spans {
		extra = append(extra, pageguard.WithSpanTracing())
	}
	rep, err := trace.Replay(trace.NewMachine(tf, extra...), tf.Events)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := trace.WriteNDJSON(&buf, rep); err != nil {
		return nil, err
	}
	if spans {
		if err := trace.WriteSpansNDJSON(&buf, rep); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// RunLoad executes a load run and fails if any response diverged from the
// offline replay or any request exhausted its retries.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	if opts.Requests <= 0 {
		opts.Requests = 64
	}
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 50
	}
	client := opts.Client
	if client == nil {
		// The default transport keeps only two idle connections per host,
		// which under Concurrency clients means constant reconnect churn —
		// the run would spend itself on TCP handshakes, not the server.
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        opts.Concurrency,
			MaxIdleConnsPerHost: opts.Concurrency,
		}}
	}
	traces := opts.Traces
	if len(traces) == 0 {
		traces = [][]byte{opts.Trace}
	}
	wants := make([][]byte, len(traces))
	for i, tr := range traces {
		w, err := offlineNDJSON(tr, opts.Spans)
		if err != nil {
			return nil, fmt.Errorf("offline replay of trace %d: %w", i, err)
		}
		wants[i] = w
	}
	url := strings.TrimSuffix(opts.URL, "/") + "/replay"
	if opts.Spans {
		url += "?spans=1"
	}

	start := time.Now()
	rep := &LoadReport{}
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// one sends request idx until it lands. rng, owned by one client and
	// seeded by its index, jitters hintless retry backoffs.
	one := func(rng *rand.Rand, idx int) error {
		for attempt := 0; ; attempt++ {
			resp, err := client.Post(url, "text/plain", bytes.NewReader(traces[idx]))
			if err != nil {
				return err
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return err
			}
			switch resp.StatusCode {
			case http.StatusOK:
				mu.Lock()
				rep.Requests++
				if !bytes.Equal(body, wants[idx]) {
					rep.Mismatches++
				}
				if resp.Header.Get("X-Pg-Cache") == "hit" {
					rep.CacheHits++
				}
				mu.Unlock()
				return nil
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				// Both shedding rungs are transient: 429 queue-full (with a
				// Retry-After hint) and 503 timeout (without one). Retry
				// either, with the client's seeded jittered backoff
				// desynchronizing hintless retries.
				mu.Lock()
				rep.Shed++
				mu.Unlock()
				if attempt >= opts.MaxRetries {
					return fmt.Errorf("request still shed after %d retries", attempt)
				}
				time.Sleep(retryDelay(resp.Header.Get("Retry-After"), attempt, rng))
			default:
				return fmt.Errorf("server returned %s: %s", resp.Status, bytes.TrimSpace(body))
			}
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < opts.Concurrency; i++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for idx := range jobs {
				if err := one(rng, idx); err != nil {
					fail(err)
				}
			}
		}(rand.New(rand.NewSource(int64(i))))
	}
	for i := 0; i < opts.Requests; i++ {
		jobs <- i % len(traces)
	}
	close(jobs)
	wg.Wait()
	rep.Elapsed = time.Since(start)

	if firstErr != nil {
		return rep, firstErr
	}
	if rep.Mismatches > 0 {
		return rep, fmt.Errorf("%d of %d responses diverged from the offline replay", rep.Mismatches, rep.Requests)
	}
	return rep, nil
}

// TraceVariants derives k distinct traces from one base trace by appending a
// short, variant-specific alloc/write/free tail with fresh object IDs. Each
// variant has a different canonical rendering (and so a different cache key)
// while exercising the same directives as the base — the shape a load mix
// needs to reach every cache entry.
func TraceVariants(base []byte, k int) ([][]byte, error) {
	tf, err := trace.ParseFile(bytes.NewReader(base))
	if err != nil {
		return nil, fmt.Errorf("parse base trace: %w", err)
	}
	var maxID uint64
	for _, ev := range tf.Events {
		if ev.ID > maxID {
			maxID = ev.ID
		}
	}
	out := make([][]byte, k)
	for i := 0; i < k; i++ {
		var b bytes.Buffer
		b.Write(base)
		if n := len(base); n > 0 && base[n-1] != '\n' {
			b.WriteByte('\n')
		}
		// Two objects per variant, with variant-dependent sizes and offsets
		// so the simulated numbers differ too, not just the text.
		id := maxID + 1 + uint64(2*i)
		fmt.Fprintf(&b, "a %d %d\nw %d %d\nf %d\n", id, 64+16*uint64(i%32), id, uint64(i%8)*8, id)
		fmt.Fprintf(&b, "a %d %d\nr %d 0\nf %d\n", id+1, 4096+uint64(i), id+1, id+1)
		out[i] = b.Bytes()
	}
	return out, nil
}

// retryDelay computes the sleep before one retry. With a parsable positive
// Retry-After hint the server's word wins (when shorter than the linear
// backoff). Without one — 503s carry no hint, and a proxy may strip or
// mangle the header — the linear backoff alone would put every shed client
// on the same retry clock, re-saturating the server in synchronized waves;
// instead the client's seeded rng spreads the backoff over [d/2, 3d/2),
// deterministic per (client, attempt sequence). Capped at one second
// so saturated-but-draining servers are retried promptly.
func retryDelay(header string, attempt int, rng *rand.Rand) time.Duration {
	d := 10 * time.Millisecond * time.Duration(attempt+1)
	if secs, err := strconv.Atoi(header); err == nil && secs > 0 {
		hint := time.Duration(secs) * time.Second
		if hint < d {
			d = hint
		}
	} else if rng != nil {
		d = d/2 + time.Duration(rng.Int63n(int64(d)))
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}
