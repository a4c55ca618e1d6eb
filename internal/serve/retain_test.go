//go:build !race

package serve

import (
	"bytes"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestCacheRetainsBodiesNotReports: a cache entry is its body's distinct
// bytes. A fresh server serves 100 distinct detection-dense traces, every
// one cached, and the heap it retains afterwards stays within 0.35 times
// the bodies it served (0.27 measured with go1.24): each body's literal is
// about a fifth of it, the rest segments referring back into it. An entry
// that kept its whole flattened body would retain over 1 times, and one
// that kept its TrapReports would also retain their flight log. The server
// is created inside the measured interval, so its snapshot and bucket
// database count too. Heap sizes depend on the collector, which the race
// detector changes, so this is built only without it.
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
	if ratio > 0.35 {
		t.Fatalf("retained heap is %.2fx the served bodies, ceiling 0.35x", ratio)
	}
}
