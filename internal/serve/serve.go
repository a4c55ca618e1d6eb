// Package serve is the production-shaped face of the detector: an HTTP
// service that accepts allocation/access traces (and named workloads) over
// the network and replays each request in an isolated simulated pageguard
// process — the fleet-facing deployment GWP-ASan-style systems use, built on
// the paper's §1.1 "intercept all calls to malloc and free" adoption path.
//
// Every replay miss boots its own fresh pageguard.Machine and releases its
// memory to shared pools afterwards, so replays are hermetic and
// byte-for-bit deterministic whatever the concurrency: the NDJSON body of a
// replay depends only on the trace, never on the worker count or
// interleaving. The server's shared
// state is limited to admission control (a bounded worker pool plus a
// bounded queue), a cache of finished bodies keyed by a hash of the request
// bytes, and metrics aggregation (per-process snapshots merged
// commutatively).
//
// The load-shedding ladder, outermost first:
//
//  1. request body over Config.MaxBodyBytes      -> 413
//  2. admission queue full                       -> 429 + Retry-After
//  3. Config.Timeout exceeded (queued or mid-replay) -> 503
//  4. graceful drain: in-flight replays finish, new connections are refused
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliff"
	"repro/internal/core"
	"repro/internal/minic/safety"
	"repro/internal/obs"
	"repro/internal/sim/kernel"
	"repro/internal/workload"
	"repro/pageguard"
	"repro/trace"
)

// Config tunes the server's admission control.
type Config struct {
	// Workers bounds concurrently executing replays (0 = 8, matching the
	// bounded-worker default of the experiment harness).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the executing
	// ones; an arriving request past that is shed with 429 (0 = 64).
	QueueDepth int
	// MaxBodyBytes caps the request body (0 = 1 MiB).
	MaxBodyBytes int64
	// Timeout is the per-request budget, from admission to the replay
	// result being ready (0 = 30s).
	Timeout time.Duration
	// CacheEntries bounds the content-hash replay cache (0 = 1024).
	// Identical requests (the same body bytes under the same query
	// overrides) are served from the cache without parsing or simulating,
	// with single-flight dedup of concurrent misses.
	CacheEntries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	return c
}

// Server replays traces over HTTP. Create with New, serve with Handler, and
// stop with http.Server.Shutdown (in-flight replays drain) followed by
// Drain for abandoned ones.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// workers holds one token per executing replay; queue admits at most
	// Workers+QueueDepth requests into the building, so at most QueueDepth
	// wait. Both are buffered channels used as counting semaphores.
	workers chan struct{}
	queue   chan struct{}

	// background counts worker goroutines; Drain waits out the ones whose
	// handler timed out and abandoned them. abandoned is how many of those
	// are still running (pgserved_abandoned_replays).
	background sync.WaitGroup
	abandoned  atomic.Int64

	mu     sync.Mutex
	reg    *obs.Registry // host-side series: latency, queue, shed (wall clock)
	merged obs.Snapshot  // per-process replay snapshots, summed (simulated)
	// staticSeen guards the per-workload static-analysis gauges: they are
	// compile-time absolutes, merged into the exposition once per workload
	// (repeat mode=static runs must not inflate them).
	staticSeen map[string]bool

	latency  *obs.Histogram
	requests map[string]*obs.Counter
	replays  *obs.Counter
	errs     *obs.Counter
	shed     *obs.Counter
	timeouts *obs.Counter

	// cache memoizes replay responses by content hash (Config.CacheEntries).
	cache *replayCache
	// buckets is the crash-bucket database: every served replay's
	// detections deduplicated by (alloc site, free site), GET /buckets.
	buckets *bucketDB

	// draining flips when the operator starts a graceful shutdown;
	// /healthz reports it so load balancers stop routing here.
	draining atomic.Bool
	// traceSeq numbers requests for X-Pg-Trace-Id correlation.
	traceSeq atomic.Uint64
	// debug is the last-N per-request records served by GET /debug/spans:
	// trace id, host wall/exec timings, and the replay's span summary.
	// Wall-clock numbers live ONLY here — never in replay bodies, which
	// must stay byte-deterministic.
	debugMu sync.Mutex
	debug   []debugEntry
}

// debugRingCap bounds the GET /debug/spans request ring.
const debugRingCap = 32

// debugEntry is one line of GET /debug/spans: the host-side view of a
// finished replay request, correlated to its deterministic span stream by
// trace id.
type debugEntry struct {
	Type          string `json:"type"` // "request"
	TraceID       string `json:"trace_id"`
	Path          string `json:"path"`
	WallMicros    int64  `json:"wall_micros"`
	ExecMicros    int64  `json:"exec_micros"`
	Spans         int    `json:"spans"`
	LeafCycles    uint64 `json:"leaf_cycles,omitempty"`
	ChargedCycles uint64 `json:"charged_cycles"`
}

// New builds a server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		workers:    make(chan struct{}, cfg.Workers),
		queue:      make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		reg:        obs.NewRegistry(),
		staticSeen: make(map[string]bool),
		buckets:    newBucketDB(),
	}
	// Latency buckets in microseconds: 100us .. 10s.
	s.latency = s.reg.Histogram("pgserved_request_micros",
		"wall-clock replay request latency in microseconds",
		[]uint64{100, 1000, 10000, 100000, 1000000, 10000000})
	s.requests = map[string]*obs.Counter{}
	for _, ep := range []string{"replay", "workload", "metrics"} {
		s.requests[ep] = s.reg.Counter(
			fmt.Sprintf("pgserved_requests_total{endpoint=%q}", ep),
			"requests received, by endpoint")
	}
	s.replays = s.reg.Counter("pgserved_replays_total", "replays completed successfully")
	s.errs = s.reg.Counter("pgserved_replay_errors_total", "requests rejected as malformed or failed mid-replay")
	s.shed = s.reg.Counter("pgserved_shed_total", "requests shed with 429 because the queue was full")
	s.timeouts = s.reg.Counter("pgserved_timeouts_total", "requests that exceeded the per-request budget")
	s.reg.GaugeFunc("pgserved_queue_depth",
		"admitted requests currently waiting for or holding a worker",
		func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("pgserved_inflight",
		"replays currently executing",
		func() float64 { return float64(len(s.workers)) })
	s.reg.GaugeFunc("pgserved_workers",
		"size of the bounded worker pool",
		func() float64 { return float64(cfg.Workers) })
	s.reg.GaugeFunc("pgserved_abandoned_replays",
		"runs still holding a worker slot after their request timed out",
		func() float64 { return float64(s.abandoned.Load()) })
	obs.RegisterBuildInfo(s.reg, time.Now())

	s.cache = newReplayCache(cfg.CacheEntries, s.reg)
	s.reg.CounterFunc("pgserved_buckets_dropped_total",
		"served detections not counted in /buckets because the crash-bucket database was full",
		s.buckets.dropped.Load)

	s.mux.HandleFunc("POST /replay", s.handleReplay)
	s.mux.HandleFunc("POST /workload/{name}", s.handleWorkload)
	s.mux.HandleFunc("GET /workloads", s.handleWorkloads)
	s.mux.HandleFunc("POST /corpus/{name}", s.handleCorpus)
	s.mux.HandleFunc("GET /corpus", s.handleCorpusList)
	s.mux.HandleFunc("GET /buckets", s.handleBuckets)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics/replay.json", s.handleReplayMetrics)
	s.mux.HandleFunc("GET /debug/spans", s.handleDebugSpans)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// SetDraining marks the server as draining (or not); /healthz reports the
// state so load balancers stop routing to an instance that is shutting
// down. pgserved flips it on SIGTERM before http.Server.Shutdown.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// healthBody is the GET /healthz JSON schema. The status stays 200 even
// while draining — the process is still healthy, just not accepting a
// future — so orchestrators distinguish "remove from rotation" (draining
// field) from "restart me" (non-200).
type healthBody struct {
	Type       string `json:"type"` // "health"
	Status     string `json:"status"`
	Draining   bool   `json:"draining"`
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	Workers    int    `json:"workers"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	b := healthBody{
		Type:       "health",
		Status:     "ok",
		Draining:   s.draining.Load(),
		QueueDepth: len(s.queue),
		Inflight:   len(s.workers),
		Workers:    s.cfg.Workers,
	}
	if b.Draining {
		b.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(b)
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}

// traceID returns the request's correlation id: the client's X-Pg-Trace-Id
// when it sent one, else a fresh server-assigned id. The id is echoed on
// the response and keys the GET /debug/spans ring.
func (s *Server) traceID(r *http.Request) string {
	if id := r.Header.Get("X-Pg-Trace-Id"); id != "" {
		return id
	}
	return fmt.Sprintf("pg-%08x", s.traceSeq.Add(1))
}

// recordDebug appends one finished request to the /debug/spans ring.
func (s *Server) recordDebug(e debugEntry) {
	e.Type = "request"
	s.debugMu.Lock()
	s.debug = append(s.debug, e)
	if len(s.debug) > debugRingCap {
		s.debug = s.debug[len(s.debug)-debugRingCap:]
	}
	s.debugMu.Unlock()
}

// handleDebugSpans streams the last-N request records as NDJSON, oldest
// first. This is the one endpoint where host wall-clock timings appear:
// correlate a line's trace_id with the deterministic span stream fetched
// via POST /replay?spans=1 to see where inside the request the simulated
// cycles went.
func (s *Server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	s.debugMu.Lock()
	entries := make([]debugEntry, len(s.debug))
	copy(entries, s.debug)
	s.debugMu.Unlock()
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			return
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return
		}
	}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain blocks until abandoned background replays finish (bounded by ctx).
// Call after http.Server.Shutdown has drained the handlers themselves.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.background.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) count(c *obs.Counter) {
	s.mu.Lock()
	c.Add(1)
	s.mu.Unlock()
}

func (s *Server) observeLatency(start time.Time) {
	micros := uint64(time.Since(start).Microseconds())
	s.mu.Lock()
	s.latency.Observe(micros)
	s.mu.Unlock()
}

// retryAfterSeconds is the Retry-After hint sent with every 429.
const retryAfterSeconds = 1

// admit runs the first two rungs of the shedding ladder. It returns a
// release function (nil when the request was rejected and responded to).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case s.queue <- struct{}{}:
	default:
		s.count(s.shed)
		writeError(w, http.StatusTooManyRequests, ErrCodeQueueFull,
			"replay queue full", retryAfterSeconds)
		return nil, false
	}
	return func() { <-s.queue }, true
}

// runIsolated executes fn on a worker slot under the request budget. fn runs
// in its own goroutine on its own machine; if the budget expires first the
// goroutine is abandoned (it cannot be interrupted mid-simulation but holds
// only its own memory plus one worker slot until it finishes, counted
// meanwhile in pgserved_abandoned_replays) and the handler reports 503. A
// request whose budget has already run out never takes a slot. A panic in
// fn is recovered on the worker goroutine and returned as a *panicError, so
// it frees the worker slot instead of killing the server.
func (s *Server) runIsolated(ctx context.Context, fn func() (any, error)) (any, error) {
	// select picks at random among ready cases: without this check an
	// expired request that finds a free slot would sometimes start fn.
	if err := expired(ctx); err != nil {
		return nil, err
	}
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	type outcome struct {
		v   any
		err error
	}
	ch := make(chan outcome, 1)
	// The worker when it exits and the handler when it gives up each try to
	// claim the run; a worker that loses was abandoned and uncounts itself.
	// The handler counts before it claims, so the gauge never reads below
	// zero.
	var claimed atomic.Bool
	s.background.Add(1)
	go func() {
		defer s.background.Done()
		defer func() {
			<-s.workers
			if !claimed.CompareAndSwap(false, true) {
				s.abandoned.Add(-1)
			}
		}()
		var out outcome
		defer func() {
			if p := recover(); p != nil {
				out = outcome{err: &panicError{val: p}}
			}
			ch <- out
		}()
		out.v, out.err = fn()
	}()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-ctx.Done():
		s.abandoned.Add(1)
		if !claimed.CompareAndSwap(false, true) {
			s.abandoned.Add(-1)
		}
		return nil, ctx.Err()
	}
}

// expired returns ctx's error, or context.DeadlineExceeded once ctx's
// deadline has passed: ctx.Err() alone stays nil until the context's timer
// has fired, which on a busy host can lag the deadline.
func expired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// panicError is a panic recovered on a worker goroutine.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

// mergeReplayMetrics folds one finished process's snapshot into the fleet
// aggregate. Snapshot.Add is commutative over the integral pg_* series, so
// the merged result is independent of request interleaving.
func (s *Server) mergeReplayMetrics(snap obs.Snapshot) {
	s.mu.Lock()
	s.merged.Add(snap)
	s.mu.Unlock()
}

// mergeStaticMetrics folds one workload's static-analysis gauges
// (pg_static_sites_total by verdict, pg_static_elided_total) into the
// exposition, labeled by workload. The gauges are compile-time absolutes,
// so each workload merges at most once — repeat mode=static requests must
// not inflate them.
func (s *Server) mergeStaticMetrics(wl string, rep *safety.Report) {
	if rep == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.staticSeen[wl] {
		return
	}
	s.staticSeen[wl] = true
	reg := obs.NewRegistry()
	rep.RegisterMetrics(reg)
	s.merged.Add(reg.Snapshot().WithLabel(fmt.Sprintf("workload=%q", wl)))
}

// Machine-readable error causes. Every shedding or rejection response
// carries exactly one of these in its JSON body, so clients branch on a
// stable code instead of parsing prose (which may change) or relying on the
// HTTP status alone (429 and 503 are ambiguous between rungs of the ladder
// in richer deployments).
const (
	ErrCodeQueueFull       = "queue-full"       // 429: admission queue full, retry after Retry-After
	ErrCodeBodyTooLarge    = "body-too-large"   // 413: request body over Config.MaxBodyBytes
	ErrCodeBadTrace        = "bad-trace"        // 400: the trace failed to parse
	ErrCodeTimeout         = "timeout"          // 503: request exceeded Config.Timeout
	ErrCodeReplayFailed    = "replay-failed"    // 422: trace semantics error or workload failure mid-run
	ErrCodeUnknownWorkload = "unknown-workload" // 404: no workload with that name
	ErrCodeUnknownTrace    = "unknown-trace"    // 404: no corpus trace with that name
	ErrCodeUnknownMode     = "unknown-mode"     // 400: unrecognized ?mode= value
	ErrCodeInternal        = "internal"         // 500: the run panicked on its worker
)

// ErrorBody is the JSON schema of every non-2xx pgserved response:
//
//	{"type":"error","code":"<cause>","status":<http status>,
//	 "error":"<human-readable detail>","retry_after_seconds":<n, 429 only>}
//
// The "type" discriminator matches the NDJSON replay stream's convention, so
// a client reading line-delimited JSON can dispatch errors and results with
// one switch.
type ErrorBody struct {
	Type       string `json:"type"` // always "error"
	Code       string `json:"code"`
	Status     int    `json:"status"`
	Error      string `json:"error"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
}

// writeError emits the structured JSON error body (plus the Retry-After
// header when retryAfter is set). It replaces http.Error on every rung of
// the shedding ladder.
func writeError(w http.ResponseWriter, status int, code, detail string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	b, err := json.Marshal(ErrorBody{
		Type: "error", Code: code, Status: status, Error: detail, RetryAfter: retryAfter,
	})
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
}

// writeBodyError answers a replay body that could not be read: 413 when it
// ran past limit, 400 bad-trace for any other read error (a client abort, a
// truncated chunked body).
func writeBodyError(w http.ResponseWriter, err error, limit int64) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge,
			fmt.Sprintf("trace larger than the %d-byte request limit", limit), 0)
		return
	}
	writeError(w, http.StatusBadRequest, ErrCodeBadTrace, "bad trace: "+err.Error(), 0)
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.count(s.requests["replay"])
	defer s.observeLatency(start)
	w.Header().Set("X-Pg-Trace-Id", s.traceID(r))
	o, ok := s.queryOverrides(w, r)
	if !ok {
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	// The budget runs from admission: reading and parsing the body are
	// charged to it.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()

	// The body is read into a pooled buffer that goes back to the pool when
	// the handler returns: the cache key hashes it and the parse copies out
	// of it, so nothing that outlives the handler points into it.
	p := bodyScratch.Get().(*[]byte)
	body, err := readBody((*p)[:0], http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	defer putScratch(&bodyScratch, p, body)
	if err != nil {
		s.count(s.errs)
		writeBodyError(w, err, s.cfg.MaxBodyBytes)
		return
	}
	s.replay(ctx, w, r, body, o, start)
}

// overrides are a replay request's query parameters that change its
// response: ?faults= and ?sampling= override the trace's '!faults' and
// '!sampling' directives ("" = no override), ?guards=1 turns on '!guards',
// and ?spans=1 appends the span stream to the body. They are read in one
// place so that the cache key covers every parameter a request applies.
type overrides struct {
	faults, sampling string
	guards, spans    bool
}

// queryOverrides reads the request's overrides and parses each with the
// parser of the directive it overrides. A malformed spec is answered here,
// before admission, with 400 bad-trace naming the parameter — the answer
// the spec gets as a trace directive — and the second result is false. So
// is a query that does not parse: url.URL.Query would drop the pair, and a
// fault schedule sent with an unescaped ';' would silently not apply.
func (s *Server) queryOverrides(w http.ResponseWriter, r *http.Request) (overrides, bool) {
	q, err := url.ParseQuery(r.URL.RawQuery)
	if err != nil {
		s.count(s.errs)
		writeError(w, http.StatusBadRequest, ErrCodeBadTrace,
			fmt.Sprintf("bad trace: malformed query ?%s: %v", r.URL.RawQuery, err), 0)
		return overrides{}, false
	}
	o := overrides{
		faults:   q.Get("faults"),
		sampling: q.Get("sampling"),
		guards:   q.Get("guards") == "1",
		spans:    q.Get("spans") == "1",
	}
	bad := func(param, what string, err error) (overrides, bool) {
		s.count(s.errs)
		writeError(w, http.StatusBadRequest, ErrCodeBadTrace,
			fmt.Sprintf("bad trace: ?%s= override: bad %s: %v", param, what, err), 0)
		return o, false
	}
	if o.faults != "" {
		if _, err := kernel.ParseSchedule(o.faults); err != nil {
			return bad("faults", "fault schedule", err)
		}
	}
	if o.sampling != "" {
		if _, err := core.ParseSamplingSpec(o.sampling); err != nil {
			return bad("sampling", "sampling spec", err)
		}
	}
	return o, true
}

// replay answers one admitted replay request for the trace bytes body under
// the overrides o, and is the one path /replay and /corpus/{name} share. ctx
// carries the request budget, which started at admission. start is the
// handler's arrival time, used only for the /debug/spans host-side record.
//
// The cache key is the hash of body and o, so a repeat of bytes already
// answered is served without parsing. A miss parses; a trace that fails to
// parse is answered 400 bad-trace, and a miss whose budget has run out by
// then 503, before either opens a flight or counts a miss. Concurrent
// identical misses simulate once (single-flight). With ?spans=1 the machine is built with span tracing and
// the body carries the span stream (plus the leaf-vs-charged reconciliation
// trailer) after the replay lines — the same bytes pgtrace -ndjson -spans
// produces offline. Every 200 response — simulated or cached — merges the
// replay's process metrics into the fleet aggregate, so the merged snapshot
// stays a function of the served request multiset alone.
func (s *Server) replay(ctx context.Context, w http.ResponseWriter, r *http.Request, body []byte, o overrides, start time.Time) {
	key := rawKeyFor(body, o)
	if ent := s.cache.lookup(key); ent != nil {
		s.serveHit(w, r, ent, start, time.Now())
		return
	}
	tf, err := trace.ParseFile(bytes.NewReader(body))
	if err != nil {
		s.count(s.errs)
		writeError(w, http.StatusBadRequest, ErrCodeBadTrace, "bad trace: "+err.Error(), 0)
		return
	}
	// Query parameters override the trace's own directives.
	if o.faults != "" {
		tf.FaultSpec = o.faults
	}
	if o.guards {
		tf.Guards = true
	}
	if o.sampling != "" {
		tf.SamplingSpec = o.sampling
	}
	var extra []pageguard.Option
	if o.spans {
		extra = append(extra, pageguard.WithSpanTracing())
	}
	execStart := time.Now()

	if err := expired(ctx); err != nil {
		s.runError(w, ctx, err, "replay")
		return
	}
	ent, call, leader := s.cache.begin(key)
	switch {
	case ent != nil:
		// Cache hit: another request stored the entry since the lookup.
	case leader:
		// First request for this key: simulate on a worker slot.
		e, err := s.lead(ctx, key, call, func() (*replayEntry, error) {
			return s.renderReplay(tf, extra, o.spans)
		})
		if err != nil {
			s.runError(w, ctx, err, "replay")
			return
		}
		s.writeEntry(w, r, e, "miss", start, execStart)
		return
	default:
		// Another request is simulating this exact key: wait for it.
		select {
		case <-call.done:
		case <-ctx.Done():
			s.runError(w, ctx, ctx.Err(), "replay")
			return
		}
		if call.err != nil {
			s.runError(w, ctx, call.err, "replay")
			return
		}
		ent = call.ent
	}
	s.serveHit(w, r, ent, start, execStart)
}

// serveHit serves a cached entry: its process metrics merge into the fleet
// aggregate and it counts as a completed replay, exactly as if it had been
// simulated again.
func (s *Server) serveHit(w http.ResponseWriter, r *http.Request, ent *replayEntry, start, execStart time.Time) {
	s.mergeReplayMetrics(ent.metrics)
	s.count(s.replays)
	s.writeEntry(w, r, ent, "hit", start, execStart)
}

// lead simulates one cache miss with render on a worker slot and settles its
// flight. The flight completes inside the worker goroutine, so a replay whose
// handler timed out still publishes its result to the cache and to any
// waiters (no completed replay work is lost). Any runIsolated error also
// settles the flight here — the worker never started (no slot before the
// deadline), was abandoned, or panicked before its own complete — so waiters
// never block on a flight nobody will finish. complete is settle-once and
// flight-scoped, so when an abandoned worker later finishes, its entry still
// caches without touching any successor flight.
func (s *Server) lead(ctx context.Context, key rawKey, call *inflightReplay, render func() (*replayEntry, error)) (*replayEntry, error) {
	v, err := s.runIsolated(ctx, func() (any, error) {
		e, rerr := render()
		s.cache.complete(key, call, e, rerr)
		return e, rerr
	})
	if err != nil {
		s.cache.complete(key, call, nil, err)
		return nil, err
	}
	return v.(*replayEntry), nil
}

// renderScratch holds render buffers between cache misses, so a render
// fills a literal and segment list already grown to a body's size. Bodies
// are cloned out of it: no pooled buffer is ever cached or served.
var renderScratch = sync.Pool{New: func() any { return new(trace.Body) }}

// bodyScratch holds request-body buffers between replay requests, so a
// repeat read fills a buffer already grown to a trace's size instead of
// growing a new one by doubling.
var bodyScratch = sync.Pool{New: func() any { return new([]byte) }}

// maxScratch bounds, in bytes, the buffers renderScratch and bodyScratch
// keep. A buffer that grew past it for one unusually large body is left to
// the collector.
const maxScratch = 1 << 20

// putScratch returns b, the grown buffer p held, to pool unless it grew past
// maxScratch.
func putScratch(pool *sync.Pool, p *[]byte, b []byte) {
	if cap(b) <= maxScratch {
		*p = b[:0]
		pool.Put(p)
	}
}

// readBody appends everything r yields to b, as io.ReadAll does into a
// fresh slice.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// renderReplay simulates one trace and renders its full response body,
// merging the process metrics and counting the completion. It registers the
// detections' reports with the crash-bucket database, so a bucket this miss
// creates takes its representative from it, and the entry keeps only their
// keys. Runs on a worker goroutine, before the flight completes: no waiter
// can be served ahead of the registration. Each miss boots a fresh machine,
// whose memory goes back to the pools as soon as the replay returns; the
// report holds none of it.
func (s *Server) renderReplay(tf *trace.File, extra []pageguard.Option, withSpans bool) (*replayEntry, error) {
	m := trace.NewMachine(tf, extra...)
	rep, err := trace.Replay(m, tf.Events)
	m.Release()
	if err != nil {
		return nil, err
	}
	body, err := renderBody(rep, withSpans)
	if err != nil {
		return nil, err
	}
	s.mergeReplayMetrics(rep.Metrics)
	s.count(s.replays)
	return &replayEntry{
		body:    body,
		metrics: rep.Metrics,
		keys:    s.buckets.register(detectionReports(rep)),
		spans:   len(rep.Spans),
		leaf:    pageguard.LeafSpanCycleSum(rep.Spans),
		charged: rep.ChargedCycles,
	}, nil
}

// renderBody renders rep's NDJSON body, followed by its span stream (a
// literal tail) with withSpans, into a renderScratch body and returns an
// exact-size copy of its literal and segments.
func renderBody(rep *trace.Report, withSpans bool) (trace.Body, error) {
	p := renderScratch.Get().(*trace.Body)
	err := trace.RenderNDJSON(p, rep)
	if err == nil && withSpans {
		err = trace.WriteSpansNDJSON(p, rep)
	}
	var body trace.Body
	if err == nil {
		body = p.Clone()
	}
	if p.Footprint() <= maxScratch {
		renderScratch.Put(p)
	}
	return body, err
}

// detectionReports extracts the replay's TrapReports (dangling detections
// only — overflow detections carry no report) for the crash-bucket database.
func detectionReports(rep *trace.Report) []*pageguard.TrapReport {
	var out []*pageguard.TrapReport
	for _, d := range rep.Detections {
		if d.Report != nil {
			out = append(out, d.Report)
		}
	}
	return out
}

// runError maps a failed worker run (what names it in the detail) onto the
// shedding ladder's error codes.
func (s *Server) runError(w http.ResponseWriter, ctx context.Context, err error, what string) {
	s.count(s.errs)
	var pe *panicError
	switch {
	case errors.As(err, &pe):
		writeError(w, http.StatusInternalServerError, ErrCodeInternal,
			what+" failed: "+err.Error(), 0)
	case ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.count(s.timeouts)
		writeError(w, http.StatusServiceUnavailable, ErrCodeTimeout,
			what+" exceeded the request budget", 0)
	default:
		writeError(w, http.StatusUnprocessableEntity, ErrCodeReplayFailed,
			what+" failed: "+err.Error(), 0)
	}
}

// writeEntry serves a rendered replay body, stamped X-Pg-Cache: cacheState
// ("hit" or "miss"), and records the /debug/spans line.
func (s *Server) writeEntry(w http.ResponseWriter, r *http.Request, ent *replayEntry, cacheState string, start, execStart time.Time) {
	execMicros := time.Since(execStart).Microseconds()
	s.buckets.count(w.Header().Get("X-Pg-Trace-Id"), ent.keys)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Pg-Cache", cacheState)
	if _, err := ent.body.WriteTo(w); err != nil {
		return // client went away mid-body; nothing more to do
	}
	s.recordDebug(debugEntry{
		TraceID:       w.Header().Get("X-Pg-Trace-Id"),
		Path:          r.URL.Path,
		WallMicros:    time.Since(start).Microseconds(),
		ExecMicros:    execMicros,
		Spans:         ent.spans,
		LeafCycles:    ent.leaf,
		ChargedCycles: ent.charged,
	})
}

// workloadResult is the NDJSON line for one workload execution.
type workloadResult struct {
	Type         string                `json:"type"` // "result"
	Workload     string                `json:"workload"`
	Mode         string                `json:"mode"`
	Output       string                `json:"output"`
	Err          string                `json:"error,omitempty"`
	Cycles       uint64                `json:"cycles"`
	Syscalls     uint64                `json:"syscalls"`
	VirtualPages uint64                `json:"virtual_pages"`
	Pools        int                   `json:"pools"`
	Report       *pageguard.TrapReport `json:"report,omitempty"`
}

func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.count(s.requests["workload"])
	defer s.observeLatency(start)
	w.Header().Set("X-Pg-Trace-Id", s.traceID(r))

	name := r.PathValue("name")
	wl, err := workload.ByName(name)
	if err != nil {
		s.count(s.errs)
		writeError(w, http.StatusNotFound, ErrCodeUnknownWorkload, err.Error(), 0)
		return
	}
	q := r.URL.Query().Get("mode")
	if q == "" {
		q = "detect"
	}
	mode, err := pageguard.ParseMode(q)
	if err != nil {
		s.count(s.errs)
		writeError(w, http.StatusBadRequest, ErrCodeUnknownMode, err.Error(), 0)
		return
	}

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	v, err := s.runIsolated(ctx, func() (any, error) {
		prog, err := pageguard.Compile(wl.Source)
		if err != nil {
			return nil, err
		}
		res, err := prog.Run(pageguard.NewMachine(), mode)
		if err != nil {
			return nil, err
		}
		if mode == pageguard.ModeDetectStatic {
			s.mergeStaticMetrics(wl.Name, prog.StaticReport())
		}
		s.count(s.replays)
		return &workloadResult{
			Type: "result", Workload: wl.Name, Mode: mode.String(),
			Output: res.Output, Err: errString(res.Err),
			Cycles: res.Cycles, Syscalls: res.Syscalls,
			VirtualPages: res.VirtualPages, Pools: prog.Pools,
			Report: res.Report,
		}, nil
	})
	if err != nil {
		s.runError(w, ctx, err, "workload run")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// handleCorpus replays one adversarial corpus trace by name, directives
// honoured: the committed trace bytes go down the /replay path, so the body
// and the cache entry are those of a POST of the same bytes to /replay — the
// corpus gate uses exactly that equivalence. ?sampling= and ?spans= apply as
// they do there. The corpus keeps its committed fault schedule and guard
// setting, so ?faults= and ?guards=1 are refused with 400 bad-trace, before
// admission, rather than silently ignored.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.count(s.requests["replay"])
	defer s.observeLatency(start)

	w.Header().Set("X-Pg-Trace-Id", s.traceID(r))
	c, err := cliff.CorpusByName(r.PathValue("name"))
	if err != nil {
		s.count(s.errs)
		writeError(w, http.StatusNotFound, ErrCodeUnknownTrace, err.Error(), 0)
		return
	}
	o, ok := s.queryOverrides(w, r)
	if !ok {
		return
	}
	var fixed string
	switch {
	case o.faults != "":
		fixed = "faults"
	case o.guards:
		fixed = "guards"
	}
	if fixed != "" {
		s.count(s.errs)
		writeError(w, http.StatusBadRequest, ErrCodeBadTrace,
			fmt.Sprintf("bad trace: ?%s= override: a corpus trace keeps its committed directives", fixed), 0)
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	raw, err := cliff.CorpusBytes(c)
	if err != nil {
		s.count(s.errs)
		writeError(w, http.StatusUnprocessableEntity, ErrCodeReplayFailed, err.Error(), 0)
		return
	}
	s.replay(ctx, w, r, raw, o, start)
}

// corpusEntry is one line of the GET /corpus listing.
type corpusEntry struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	out := []corpusEntry{}
	for _, c := range cliff.Corpus() {
		out = append(out, corpusEntry{Name: c.Name, Description: c.Description})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(out)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	names := workload.Names()
	sort.Strings(names)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.Encode(names)
}

// handleMetrics serves the full Prometheus exposition: the host-side
// pgserved_* series (latency, queue depth, shed/timeout counters — wall
// clock) plus the merged pg_* series of every finished replay process
// (simulated, deterministic).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.count(s.requests["metrics"])
	s.mu.Lock()
	snap := s.reg.Snapshot()
	snap.Add(s.merged)
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snap.WritePrometheus(w, "")
}

// handleReplayMetrics serves only the merged per-process snapshot as JSON.
// Every series in it is simulated, so the body is byte-identical for the
// same multiset of replayed traces regardless of concurrency — the
// determinism probe the parity tests and the smoke gate scrape.
func (s *Server) handleReplayMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := s.ReplaySnapshot()
	snap.WriteJSON(w)
}

// ReplaySnapshot returns a copy of the merged per-process replay metrics.
func (s *Server) ReplaySnapshot() obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := obs.Snapshot{}
	out.Add(s.merged)
	return out
}

// HostSnapshot returns the host-side pgserved_* series (wall clock).
func (s *Server) HostSnapshot() obs.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg.Snapshot()
}
