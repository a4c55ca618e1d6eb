//go:build !race

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/pageguard"
)

// TestCacheRetainsBodiesNotReports: a cache entry is its body's distinct
// bytes. A fresh server serves 100 distinct detection-dense traces, every
// one cached, and the heap it retains afterwards stays within 0.30 times
// the bodies it served (0.24 measured with go1.24): each body's literal is
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
	if ratio := retainedPerBody(t, traces); ratio > 0.30 {
		t.Fatalf("retained heap is %.2fx the served bodies, ceiling 0.30x", ratio)
	}
}

// TestCacheRetainsUniqueBodies is the same over replay-unique-shaped
// traces: 160 objects and two dangling reads each, small bodies beside
// which whatever else an entry or a bucket keeps shows. The server
// retains within 1.00 times the bodies it served (0.91 measured with
// go1.24; 1.62 when each entry kept its metrics as maps of named series
// and each bucket its representative's flight as a copied event slice).
func TestCacheRetainsUniqueBodies(t *testing.T) {
	traces := make([][]byte, 100)
	for i := range traces {
		traces[i] = uniqueTrace(i)
	}
	if ratio := retainedPerBody(t, traces); ratio > 1.00 {
		t.Fatalf("retained heap is %.2fx the served bodies, ceiling 1.00x", ratio)
	}
}

// retainedPerBody serves each trace once on a fresh server, each a cache
// miss, and returns the heap the server retains afterwards over the bytes
// of the bodies it served.
func retainedPerBody(t *testing.T, traces [][]byte) float64 {
	t.Helper()
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
	if n, want := s.cache.misses.Load(), uint64(len(traces)); n != want {
		t.Fatalf("%d misses, want %d", n, want)
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(retained) / float64(bodies)
	t.Logf("retained %d KB for %d KB of bodies over %d entries: %.2fx", retained>>10, bodies>>10, len(traces), ratio)
	return ratio
}

// TestBucketsRetainDeflatedReports: a crash bucket keeps its
// representative as deflated JSON. 100 signatures, each represented by a
// replay-detect report with a full flight window, retain within 0.25
// times the JSON /buckets would serve for them (0.20 measured with
// go1.24); a representative kept as a report with an exact-size flight
// copy retained 1.03 times.
func TestBucketsRetainDeflatedReports(t *testing.T) {
	var reports []*pageguard.TrapReport
	for v := 0; len(reports) < 100; v++ {
		for _, r := range replayReports(t, detectTrace(v)) {
			cp := *r
			cp.AllocSite = fmt.Sprintf("trace:%d", 1000+len(reports))
			reports = append(reports, &cp)
		}
	}
	reports = reports[:100]
	jsonBytes := 0
	for _, r := range reports {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		jsonBytes += len(data)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := newBucketDB()
	db.register(reports)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	runtime.KeepAlive(reports)
	if len(db.buckets) != len(reports) {
		t.Fatalf("%d buckets, want %d", len(db.buckets), len(reports))
	}
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(retained) / float64(jsonBytes)
	t.Logf("retained %d KB for %d KB of representative JSON over %d buckets: %.2fx", retained>>10, jsonBytes>>10, len(reports), ratio)
	if ratio > 0.25 {
		t.Fatalf("retained heap is %.2fx the representatives' JSON, ceiling 0.25x", ratio)
	}
}
