// Command pgserved serves the detector over HTTP: a production-shaped
// trace-replay service. Clients POST allocation/access traces (the paper's
// §1.1 interposition recording) and receive the replay's detections,
// forensic trap reports, and detector statistics as NDJSON; each request
// runs in an isolated simulated pageguard process on a bounded worker pool,
// so replays are deterministic whatever the concurrency.
//
// Usage:
//
//	pgserved -addr :8080                        # serve
//	pgserved -load -url URL -trace t.txt -n 64  # check parity under load
//
// Serving endpoints:
//
//	POST /replay               replay the trace in the body (NDJSON response);
//	                           ?guards=1 adds overflow guard pages,
//	                           ?faults=SPEC overrides the trace's schedule,
//	                           ?sampling=rate=N[,seed=S][,quarantine=Q][,cool=C]
//	                           replays under the sampled detection tier
//	POST /corpus/{name}        replay a committed adversarial corpus trace,
//	                           the body of a /replay POST of its bytes;
//	                           ?sampling= and ?spans=1 apply, ?faults= and
//	                           ?guards=1 are refused (400)
//	GET  /corpus               list the corpus traces (name, description)
//	POST /workload/{name}      compile and run a bundled workload
//	                           (?mode=native|pa|detect|detect-nopa|static)
//	GET  /workloads            list bundled workload names
//	GET  /metrics              Prometheus text: pgserved_* host series plus
//	                           the merged pg_* series of finished replays
//	GET  /metrics/replay.json  merged replay metrics only (deterministic)
//	GET  /buckets              this process's crash-bucket database: every
//	                           served detection deduplicated by (alloc site,
//	                           free site) with counts, first/last trace ids,
//	                           and one representative forensic report per
//	                           bucket, at most 1024 buckets (detections past
//	                           the cap count in pgserved_buckets_dropped_total)
//	GET  /healthz              liveness JSON: status, drain state, queue depth
//	GET  /debug/spans          last-N request records (trace id, wall/exec
//	                           timings, span count, cycle reconciliation)
//
// Every replay response carries an X-Pg-Trace-Id header (client-supplied ids
// are echoed); POST /replay?spans=1 appends the deterministic span stream —
// the exact bytes pgtrace -ndjson -spans prints for the same trace.
//
// Admission control: at most -workers replays execute concurrently and at
// most -queue wait; past that, requests are shed with 429 and a Retry-After
// hint rather than queueing unboundedly. Each request has a -timeout budget;
// a replay that outlives it is abandoned and holds its worker slot until it
// finishes, counted meanwhile in the pgserved_abandoned_replays gauge.
// On SIGTERM/SIGINT the server stops accepting connections and drains
// in-flight replays before exiting.
//
// Serving has one configuration: the server pre-warms one machine snapshot
// at boot and copy-on-write forks it per request, and memoizes full response
// bodies in a bounded LRU keyed by the SHA-256 of the request's bytes and
// its response-changing query parameters (-cache N entries, at least 1): a
// repeat is served without parsing, and a trace that differs only in blanks
// or comments is simulated once itself. Responses and merged metrics are
// byte-identical to a fresh machine's offline replay, enforced by parity
// tests. The cache cannot be disabled, and -snapshots accepts only true
// (the value perfbench passes); -snapshots=false and -cache 0 exit 2.
//
// The -load mode is pgload, the bundled parity check: it fires -n replays of
// the trace from -c concurrent clients, retries sheds, and asserts every
// response is byte-identical to the offline replay (what pgtrace -ndjson
// prints) — exit status 1 on any divergence. -distinct K derives K trace
// variants from the base trace and sends request i the variant i mod K.
// It measures nothing; perfbench (perfbench/run.sh) is the benchmark.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (serve mode)")
	workers := flag.Int("workers", 0, "concurrent replay executors (0 = 8)")
	queue := flag.Int("queue", 0, "waiting requests beyond the executing ones (0 = 64)")
	timeout := flag.Duration("timeout", 0, "per-request replay budget (0 = 30s)")
	maxBody := flag.Int64("max-body", 0, "request body limit in bytes (0 = 1 MiB)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	snapshots := flag.Bool("snapshots", true, "fork each replay machine from the pre-warmed snapshot (the only serving path; false is refused)")
	cache := flag.Int("cache", 1024, "content-hash replay cache entries (at least 1)")

	load := flag.Bool("load", false, "run as the pgload load generator instead of serving")
	url := flag.String("url", "", "server base URL (load mode)")
	traceFile := flag.String("trace", "", "trace file to replay (load mode)")
	n := flag.Int("n", 64, "total replays to complete (load mode)")
	c := flag.Int("c", 8, "concurrent clients (load mode)")
	out := flag.String("out", "", "write one verified response body to this file (load mode)")
	spans := flag.Bool("spans", false, "request ?spans=1 and verify the span stream against the offline traced replay (load mode)")
	distinct := flag.Int("distinct", 1, "number of distinct trace variants derived from -trace; request i sends variant i mod K (load mode)")
	flag.Parse()

	if err := checkServingFlags(*snapshots, *cache); err != nil {
		fmt.Fprintln(os.Stderr, "pgserved:", err)
		os.Exit(2)
	}
	var err error
	switch {
	case *load:
		err = runLoad(loadArgs{
			url: *url, traceFile: *traceFile, n: *n, c: *c, out: *out, spans: *spans,
			distinct: *distinct,
		})
	default:
		err = runServe(*addr, serve.Config{
			Workers: *workers, QueueDepth: *queue,
			Timeout: *timeout, MaxBodyBytes: *maxBody,
			CacheEntries: *cache,
		}, *drain)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgserved:", err)
		os.Exit(1)
	}
}

// checkServingFlags refuses the serving configurations that no longer
// exist: the fresh-machine path (-snapshots=false) and the cache-off path
// (-cache below 1).
func checkServingFlags(snapshots bool, cache int) error {
	if !snapshots {
		return errors.New("-snapshots=false: the fresh-machine serving path was removed; every replay forks the pre-warmed snapshot")
	}
	if cache < 1 {
		return fmt.Errorf("-cache %d: the replay cache can no longer be disabled; give at least 1 entry", cache)
	}
	return nil
}

func runServe(addr string, cfg serve.Config, drain time.Duration) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveOn(ln, serve.New(cfg), drain, os.Stdout)
}

// serveOn serves until SIGTERM/SIGINT, then drains in-flight replays. Its
// status lines, the startup handshake first, go to out.
func serveOn(ln net.Listener, s *serve.Server, drain time.Duration, out io.Writer) error {
	// The handler goes in before the handshake line: a supervisor may signal
	// as soon as it sees the line or a /healthz answer, and a SIGTERM that
	// arrived before Notify would kill the process undrained.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)

	httpSrv := &http.Server{Handler: s.Handler()}
	// The resolved address line is the startup handshake scripts wait for.
	fmt.Fprintf(out, "pgserved: listening on %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case got := <-sig:
		// Flip /healthz to draining before Shutdown so load balancers see
		// the state change while the listener is still answering.
		s.SetDraining(true)
		fmt.Fprintf(out, "pgserved: %s, draining in-flight replays\n", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := s.Drain(ctx); err != nil {
		return fmt.Errorf("drain background replays: %w", err)
	}
	fmt.Fprintln(out, "pgserved: drained cleanly")
	return nil
}

type loadArgs struct {
	url, traceFile, out string
	n, c, distinct      int
	spans               bool
}

func runLoad(a loadArgs) error {
	url, traceFile, n, c, out, spans := a.url, a.traceFile, a.n, a.c, a.out, a.spans
	if url == "" {
		return errors.New("load mode needs -url")
	}
	if traceFile == "" {
		return errors.New("load mode needs -trace")
	}
	traceText, err := os.ReadFile(traceFile)
	if err != nil {
		return err
	}
	opts := serve.LoadOptions{
		URL: url, Trace: traceText, Requests: n, Concurrency: c, Spans: spans,
	}
	if a.distinct > 1 {
		opts.Traces, err = serve.TraceVariants(traceText, a.distinct)
		if err != nil {
			return err
		}
	}
	rep, err := serve.RunLoad(opts)
	if rep != nil {
		fmt.Printf("pgload: %s, %d cache hits\n", rep, rep.CacheHits)
	}
	if err != nil {
		return err
	}
	if out != "" {
		replayURL := url + "/replay"
		if spans {
			replayURL += "?spans=1"
		}
		resp, err := http.Post(replayURL, "text/plain", bytes.NewReader(traceText))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fetching -out body: %s", resp.Status)
		}
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if _, err := f.ReadFrom(resp.Body); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
