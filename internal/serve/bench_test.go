package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/pageguard"
	"repro/trace"
)

// cacheBenchBody is one TraceVariants variant of a trace shaped like
// perfbench's replay-zipf base: 640 objects of 12 to 28 pages, each
// allocated, written, read and freed, about 25 KB in all.
func cacheBenchBody(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(1))
	var base bytes.Buffer
	for id := 1; id <= 640; id++ {
		size := 49152 + rng.Intn(7)*16384
		fmt.Fprintf(&base, "a %d %d\nw %d %d\nr %d %d\nf %d\n",
			id, size, id, rng.Intn(size/8)*8, id, rng.Intn(64)*8, id)
	}
	vs, err := TraceVariants(base.Bytes(), 2)
	if err != nil {
		tb.Fatal(err)
	}
	return vs[1]
}

// BenchmarkCacheKey measures what keying one replay request costs: the
// hash of its body bytes, which is all a repeat pays before it is served.
func BenchmarkCacheKey(b *testing.B) {
	body := cacheBenchBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRawKey = rawKeyFor(body, overrides{})
	}
}

// BenchmarkServeHit measures what pgserved does with a repeat of a trace it
// has already answered, as every replay-zipf request after warm-up is: read
// the body, hash it to the cache key, find the cached entry and write it out.
// The first request, outside the timed loop, simulates and caches the trace.
func BenchmarkServeHit(b *testing.B) { benchServeHit(b, cacheBenchBody(b)) }

// BenchmarkServeHitDetect is the same for a repeat of a replay-detect
// request, whose cached body is 52 segments: the write coalesces
// them into a few large writes.
func BenchmarkServeHitDetect(b *testing.B) { benchServeHit(b, detectTrace(0)) }

// benchServeHit times cache hits of the trace body.
func benchServeHit(b *testing.B, body []byte) {
	h := New(Config{}).Handler()
	serve := func() *hitWriter {
		w := &hitWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/replay", bytes.NewReader(body)))
		if w.status != http.StatusOK {
			b.Fatalf("replay status %d", w.status)
		}
		return w
	}
	if got := serve().header.Get("X-Pg-Cache"); got != "miss" {
		b.Fatalf("first request X-Pg-Cache %q, want miss", got)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := serve(); w.header.Get("X-Pg-Cache") != "hit" {
			b.Fatalf("repeat X-Pg-Cache %q, want hit", w.header.Get("X-Pg-Cache"))
		}
	}
}

// BenchmarkServeMiss measures what pgserved does with a replay-detect
// request it has not seen: read the body, hash it, miss, parse, boot a
// fresh machine, replay, release, render ten trap reports and cache the body. Each
// iteration sends a distinct detectTrace variant. Before a variant would
// repeat, and so hit the cache, the server is rebuilt outside the timer.
func BenchmarkServeMiss(b *testing.B) {
	const variants = 32
	bodies := make([][]byte, variants)
	for i := range bodies {
		bodies[i] = detectTrace(i)
	}
	var h http.Handler
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%variants == 0 {
			b.StopTimer()
			h = New(Config{}).Handler()
			b.StartTimer()
		}
		w := &hitWriter{header: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/replay", bytes.NewReader(bodies[i%variants])))
		if w.status != http.StatusOK || w.header.Get("X-Pg-Cache") != "miss" {
			b.Fatalf("request %d: status %d, X-Pg-Cache %q, want 200 and miss", i, w.status, w.header.Get("X-Pg-Cache"))
		}
	}
}

// BenchmarkMergeReplayMetrics is what every served replay adds to the
// process aggregate: one replay's metric values summed into it in place.
// It allocates nothing.
func BenchmarkMergeReplayMetrics(b *testing.B) {
	metrics := replayMetrics(b, uniqueTrace(0))
	s := New(Config{})
	s.mergeReplayMetrics(metrics)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.mergeReplayMetrics(metrics)
	}
}

// BenchmarkBucketRegister is what a detection with a signature the
// database has not seen pays, once: its report encoded as JSON and
// deflated into the bucket's representative.
func BenchmarkBucketRegister(b *testing.B) {
	reports := detectReports(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newBucketDB().register(reports[:1])
	}
}

// replayMetrics replays body on a fresh machine and returns its metrics.
func replayMetrics(tb testing.TB, body []byte) obs.Snapshot {
	tf, err := trace.ParseFile(bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
	if err != nil {
		tb.Fatal(err)
	}
	return rep.Metrics
}

// detectReports replays detectTrace(0) and returns its ten trap reports.
func detectReports(tb testing.TB) []*pageguard.TrapReport {
	tf, err := trace.ParseFile(bytes.NewReader(detectTrace(0)))
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
	if err != nil {
		tb.Fatal(err)
	}
	return detectionReports(rep)
}

// detectTrace is a detection-dense request shaped like perfbench's
// replay-detect: 160 objects of 12 to 28 pages, each allocated, written,
// read and freed, every sixteenth read once more after its free, so ten
// detections whose reports carry full flight windows. Object ids start at
// v*1000, so variants never share a canonical rendering, while the stale
// reads sit on the same lines in every variant.
func detectTrace(v int) []byte {
	return pageTrace(rand.New(rand.NewSource(int64(v)+1)), v, func(i int) bool { return i%16 == 15 })
}

// uniqueTrace is variant v of a replay-unique-shaped trace, as perfbench
// builds one: 160 page-sized objects, each allocated, written, read and
// freed, two of them read again after their free.
func uniqueTrace(v int) []byte {
	rng := rand.New(rand.NewSource(int64(v) + 1))
	a := rng.Intn(160)
	b := (a + 1 + rng.Intn(159)) % 160
	return pageTrace(rng, v, func(i int) bool { return i == a || i == b })
}

// pageTrace is trace variant v of 160 page-sized objects, each allocated,
// written, read and freed; the objects dangling picks are read once more
// after their free.
func pageTrace(rng *rand.Rand, v int, dangling func(i int) bool) []byte {
	var b []byte
	event := func(kind byte, id int, arg ...int) {
		b = append(b, kind, ' ')
		b = strconv.AppendInt(b, int64(id), 10)
		for _, a := range arg {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(a), 10)
		}
		b = append(b, '\n')
	}
	for i := 0; i < 160; i++ {
		id := v*1000 + i + 1
		size := 49152 + rng.Intn(7)*16384
		event('a', id, size)
		event('w', id, rng.Intn(size/8)*8)
		event('r', id, rng.Intn(64)*8)
		event('f', id)
		if dangling(i) {
			event('r', id, rng.Intn(64)*8)
		}
	}
	return b
}

// hitWriter is a ResponseWriter that keeps the headers and status and
// discards the body, as a socket write would leave nothing behind.
type hitWriter struct {
	header http.Header
	status int
}

func (w *hitWriter) Header() http.Header { return w.header }

func (w *hitWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

func (w *hitWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

// benchRawKey keeps BenchmarkCacheKey's result live.
var benchRawKey rawKey
