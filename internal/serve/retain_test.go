//go:build !race

package serve

import (
	"bytes"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
)

// detectTrace is a detection-dense request shaped like perfbench's
// replay-detect: 160 objects of 12 to 28 pages, each allocated, written,
// read and freed, every sixteenth read once more after its free, so ten
// detections whose reports carry full flight windows. Object ids start at
// v*1000, so variants never share a canonical rendering, while the stale
// reads sit on the same lines in every variant.
func detectTrace(v int) []byte {
	rng := rand.New(rand.NewSource(int64(v) + 1))
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
		if i%16 == 15 {
			event('r', id, rng.Intn(64)*8)
		}
	}
	return b
}

// TestCacheRetainsBodiesNotReports: a cache entry is its body. A fresh
// server serves 100 distinct detection-dense traces, every one cached, and
// the heap it retains afterwards stays within 1.3 times the bodies it
// served. An entry that kept its TrapReports would retain about twice the
// bodies, since each report holds its own copy of the flight ring. The
// server is created inside the measured interval, so its snapshot and
// bucket database count too. Heap sizes depend on the collector, which the
// race detector changes, so this is built only without it.
func TestCacheRetainsBodiesNotReports(t *testing.T) {
	traces := make([][]byte, 100)
	for i := range traces {
		traces[i] = detectTrace(i)
	}
	var before, after runtime.MemStats
	// Two cycles: the first frees what earlier tests left unreachable, the
	// second what only sync.Pool victim caches still held.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)

	s := New(Config{})
	h := s.Handler()
	bodies := 0
	for i, tr := range traces {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/replay", bytes.NewReader(tr)))
		if rec.Code != 200 || rec.Header().Get("X-Pg-Cache") != "miss" {
			t.Fatalf("trace %d: status %d, X-Pg-Cache %q: %s", i, rec.Code, rec.Header().Get("X-Pg-Cache"), rec.Body.Bytes())
		}
		bodies += rec.Body.Len()
	}

	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	runtime.KeepAlive(traces)
	if n := s.cache.misses.Load(); n != 100 {
		t.Fatalf("%d misses, want 100", n)
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(retained) / float64(bodies)
	t.Logf("retained %d KB for %d KB of bodies over 100 entries: %.2fx", retained>>10, bodies>>10, ratio)
	if ratio > 1.3 {
		t.Fatalf("retained heap is %.2fx the served bodies, ceiling 1.3x", ratio)
	}
}
