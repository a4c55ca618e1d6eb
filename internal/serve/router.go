package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/trace"
)

// Router error codes (the ErrorBody schema is shared with the backends).
const (
	ErrCodeNoBackend   = "no-backend"          // 503: no healthy backend in the ring
	ErrCodeBackendGone = "backend-unreachable" // 502: the chosen backend failed mid-proxy
)

// RouterConfig tunes the consistent-hashing router mode (pgserved -route).
type RouterConfig struct {
	// Backends is the list of backend base URLs (e.g. http://127.0.0.1:8081).
	Backends []string
	// HealthInterval is the backend health-poll period (0 = 1s).
	HealthInterval time.Duration
	// Replicas is the number of virtual ring points per backend (0 = 64).
	Replicas int
	// MaxBodyBytes caps proxied request bodies (0 = 1 MiB), mirroring the
	// backend limit so the router sheds oversized bodies without burning
	// backend work.
	MaxBodyBytes int64
	// Client is the HTTP client used for proxying and health checks
	// (nil = a default with sane timeouts for health checks; proxied
	// requests ride the request context).
	Client *http.Client
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.Replicas <= 0 {
		c.Replicas = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// routerBackend is one backend's live state.
type routerBackend struct {
	url      string
	healthy  atomic.Bool
	draining atomic.Bool
	requests atomic.Uint64
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash    uint64
	backend *routerBackend
}

// Router is the consistent-hashing front of a pgserved fleet: requests are
// routed to backends by the same canonical content hash the backends' replay
// cache keys on, so identical traces always land on the same backend and
// cache locality survives scale-out. Backends are health-checked and
// drain-aware: a backend whose /healthz reports draining (or stops
// answering) leaves the ring until it recovers, its keys sliding to the next
// point on the ring.
type Router struct {
	cfg      RouterConfig
	mux      *http.ServeMux
	backends []*routerBackend
	ring     []ringPoint // sorted by hash; immutable after NewRouter

	reg       *obs.Registry
	regMu     sync.Mutex
	proxyErrs atomic.Uint64
	noBackend atomic.Uint64

	draining atomic.Bool
	inflight sync.WaitGroup
	stopOnce sync.Once
	stop     chan struct{}
}

// NewRouter builds a router over cfg.Backends and starts its health loop
// (after one synchronous sweep, so the ring is usable immediately).
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one backend")
	}
	rt := &Router{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		reg:  obs.NewRegistry(),
		stop: make(chan struct{}),
	}
	for _, raw := range cfg.Backends {
		b := &routerBackend{url: strings.TrimRight(raw, "/")}
		rt.backends = append(rt.backends, b)
		for i := 0; i < cfg.Replicas; i++ {
			h := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", b.url, i)))
			rt.ring = append(rt.ring, ringPoint{hash: binary.BigEndian.Uint64(h[:8]), backend: b})
		}
		rt.reg.GaugeFunc(fmt.Sprintf("pgrouter_backend_healthy{backend=%q}", b.url),
			"1 when the backend is in the ring (healthy and not draining)",
			func() float64 {
				if b.healthy.Load() && !b.draining.Load() {
					return 1
				}
				return 0
			})
		rt.reg.CounterFunc(fmt.Sprintf("pgrouter_requests_total{backend=%q}", b.url),
			"requests proxied to the backend", b.requests.Load)
	}
	sort.Slice(rt.ring, func(i, j int) bool { return rt.ring[i].hash < rt.ring[j].hash })
	rt.reg.CounterFunc("pgrouter_proxy_errors_total",
		"proxied requests that failed against their backend", rt.proxyErrs.Load)
	rt.reg.CounterFunc("pgrouter_no_backend_total",
		"requests shed because no healthy backend was in the ring", rt.noBackend.Load)
	obs.RegisterBuildInfo(rt.reg, time.Now())

	rt.sweepHealth()
	go rt.healthLoop()

	rt.mux.HandleFunc("POST /replay", rt.handleReplay)
	rt.mux.HandleFunc("POST /corpus/{name}", rt.handleByPath)
	rt.mux.HandleFunc("POST /workload/{name}", rt.handleByPath)
	rt.mux.HandleFunc("GET /workloads", rt.handleAnyBackend)
	rt.mux.HandleFunc("GET /corpus", rt.handleAnyBackend)
	rt.mux.HandleFunc("GET /buckets", rt.handleBuckets)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return rt, nil
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// SetDraining marks the router as draining; /healthz reports it.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

// Drain stops the health loop and waits for in-flight proxies (bounded by
// ctx). Call after http.Server.Shutdown.
func (rt *Router) Drain(ctx context.Context) error {
	rt.stopOnce.Do(func() { close(rt.stop) })
	done := make(chan struct{})
	go func() {
		rt.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// healthLoop polls every backend's /healthz until Drain.
func (rt *Router) healthLoop() {
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.sweepHealth()
		}
	}
}

// sweepHealth polls each backend once: healthy means /healthz answered 200,
// and the body's draining field decides ring membership separately.
func (rt *Router) sweepHealth() {
	for _, b := range rt.backends {
		ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthInterval)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
		if err != nil {
			cancel()
			b.healthy.Store(false)
			continue
		}
		resp, err := rt.cfg.Client.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			if resp != nil {
				resp.Body.Close()
			}
			cancel()
			b.healthy.Store(false)
			continue
		}
		var hb healthBody
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&hb)
		resp.Body.Close()
		cancel()
		b.healthy.Store(err == nil)
		b.draining.Store(err == nil && hb.Draining)
	}
}

// pick walks the ring from the first point at or after hash to the next
// backend that is healthy and not draining. Returns nil when the ring is
// empty of usable backends.
func (rt *Router) pick(hash uint64) *routerBackend {
	n := len(rt.ring)
	start := sort.Search(n, func(i int) bool { return rt.ring[i].hash >= hash }) % n
	for i := 0; i < n; i++ {
		b := rt.ring[(start+i)%n].backend
		if b.healthy.Load() && !b.draining.Load() {
			return b
		}
	}
	return nil
}

// firstUsable returns a stable healthy backend for unkeyed GETs.
func (rt *Router) firstUsable() *routerBackend {
	for _, b := range rt.backends {
		if b.healthy.Load() && !b.draining.Load() {
			return b
		}
	}
	return nil
}

// replayHash computes the routing hash for a replay body: the canonical
// trace rendering the backend replay cache keys on (so one trace's repeats,
// and its comment and whitespace variants, always share a backend cache),
// plus the query string, whose parameters change replay semantics. An
// unparseable body hashes raw — the backend will reject it, but
// consistently.
func replayHash(body []byte, rawQuery string) uint64 {
	h := sha256.New()
	if tf, err := trace.ParseFile(bytes.NewReader(body)); err == nil {
		tf.Format(h)
	} else {
		h.Write(body)
	}
	h.Write([]byte{0})
	h.Write([]byte(rawQuery))
	return binary.BigEndian.Uint64(h.Sum(nil)[:8])
}

func (rt *Router) handleReplay(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		writeBodyError(w, err, rt.cfg.MaxBodyBytes)
		return
	}
	rt.proxy(w, r, rt.pick(replayHash(body, r.URL.RawQuery)), body)
}

// handleByPath routes name-addressed POSTs (corpus and workload runs) by
// path+query, so each name's repeats share one backend.
func (rt *Router) handleByPath(w http.ResponseWriter, r *http.Request) {
	h := sha256.Sum256([]byte(r.URL.Path + "?" + r.URL.RawQuery))
	rt.proxy(w, r, rt.pick(binary.BigEndian.Uint64(h[:8])), nil)
}

// handleAnyBackend proxies unkeyed GETs to a stable healthy backend.
func (rt *Router) handleAnyBackend(w http.ResponseWriter, r *http.Request) {
	rt.proxy(w, r, rt.firstUsable(), nil)
}

// proxy forwards the request to b, copying status, headers (Retry-After and
// the X-Pg-* correlation/cache headers included), and body through
// unchanged, so clients cannot tell the router from a backend except by the
// X-Pg-Backend header it adds.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, b *routerBackend, body []byte) {
	if b == nil {
		rt.noBackend.Add(1)
		writeError(w, http.StatusServiceUnavailable, ErrCodeNoBackend,
			"no healthy backend in the ring", 1)
		return
	}
	rt.inflight.Add(1)
	defer rt.inflight.Done()
	b.requests.Add(1)

	var reqBody io.Reader
	if body != nil {
		reqBody = bytes.NewReader(body)
	} else if r.Body != nil {
		reqBody = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	}
	url := b.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, reqBody)
	if err != nil {
		rt.proxyErrs.Add(1)
		writeError(w, http.StatusBadGateway, ErrCodeBackendGone, err.Error(), 0)
		return
	}
	for _, h := range []string{"Content-Type", "X-Pg-Trace-Id"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set("X-Pg-Router", "1")
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		rt.proxyErrs.Add(1)
		writeError(w, http.StatusBadGateway, ErrCodeBackendGone,
			"backend "+b.url+" unreachable: "+err.Error(), 0)
		return
	}
	defer resp.Body.Close()
	for k, vv := range resp.Header {
		for _, v := range vv {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Pg-Backend", b.url)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleBuckets is the fleet crash-bucket view: unlike the unkeyed GETs that
// any one backend can answer, every backend holds buckets only for the keys
// the ring routed to it, so the router fans out to all reachable backends and
// merges their databases (counts summed, first-seen/representative from the
// earliest backend in configuration order). A backend that is down or
// draining still contributes if it answers — its buckets describe detections
// already served and must not vanish from the fleet view mid-drain.
func (rt *Router) handleBuckets(w http.ResponseWriter, r *http.Request) {
	rt.inflight.Add(1)
	defer rt.inflight.Done()
	var lists [][]CrashBucket
	for _, b := range rt.backends {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, b.url+"/buckets", nil)
		if err != nil {
			continue
		}
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			continue
		}
		var body bucketsBody
		err = json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		lists = append(lists, body.Buckets)
	}
	writeBuckets(w, mergeBuckets(lists))
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.regMu.Lock()
	snap := rt.reg.Snapshot()
	rt.regMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snap.WritePrometheus(w, "")
}

// routerHealth is GET /healthz on the router: its own draining state plus
// the ring view.
type routerHealth struct {
	Type     string   `json:"type"` // "health"
	Status   string   `json:"status"`
	Draining bool     `json:"draining"`
	Backends int      `json:"backends"`
	Healthy  int      `json:"healthy"`
	InRing   []string `json:"in_ring"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	hb := routerHealth{Type: "health", Status: "ok", Draining: rt.draining.Load(),
		Backends: len(rt.backends), InRing: []string{}}
	if hb.Draining {
		hb.Status = "draining"
	}
	for _, b := range rt.backends {
		if b.healthy.Load() && !b.draining.Load() {
			hb.Healthy++
			hb.InRing = append(hb.InRing, b.url)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(hb)
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}
