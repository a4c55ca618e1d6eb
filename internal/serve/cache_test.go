package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// cachedServer boots a server with the serving accelerations on: snapshot
// forking plus a content-hash cache of the given size.
func cachedServer(t *testing.T, entries int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Snapshots: true, CacheEntries: entries})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestCacheHitByteIdentity: repeat requests are served from the cache
// (X-Pg-Cache flips miss -> hit) with bodies byte-identical to the offline
// replay, and the hit/miss counters account for every request.
func TestCacheHitByteIdentity(t *testing.T) {
	tr := faultedTrace(t)
	want, err := offlineNDJSON(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := cachedServer(t, 64)
	states := []string{"miss", "hit", "hit"}
	for i, wantState := range states {
		resp, body := postReplay(t, ts.URL, tr)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %s: %s", i, resp.Status, body)
		}
		if got := resp.Header.Get("X-Pg-Cache"); got != wantState {
			t.Errorf("request %d: X-Pg-Cache = %q, want %q", i, got, wantState)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("request %d (%s) diverged from the offline replay", i, wantState)
		}
	}
	if h, m := s.cache.hits.Load(), s.cache.misses.Load(); h != 2 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 2/1", h, m)
	}
}

// TestCacheOffServesWithoutCacheHeader: with the cache disabled every
// request simulates on the same render path as a cache miss, with the same
// bytes, and no response carries an X-Pg-Cache header.
func TestCacheOffServesWithoutCacheHeader(t *testing.T) {
	tr := faultedTrace(t)
	want, err := offlineNDJSON(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		resp, body := postReplay(t, ts.URL, tr)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %s: %s", i, resp.Status, body)
		}
		if got, ok := resp.Header["X-Pg-Cache"]; ok {
			t.Errorf("request %d: cache-off response carries X-Pg-Cache %q", i, got)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("request %d diverged from the offline replay", i)
		}
	}
	s.mu.Lock()
	got := s.replays.Value()
	s.mu.Unlock()
	if got != 2 {
		t.Errorf("replays = %d, want 2 (every cache-off request simulates)", got)
	}
}

// TestCacheSingleFlight: concurrent identical requests simulate once — the
// leader replays, every waiter is served the same entry, and the miss counter
// records exactly one simulation.
func TestCacheSingleFlight(t *testing.T) {
	tr := slowTrace(800)
	want, err := offlineNDJSON(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := cachedServer(t, 64)
	const clients = 8
	var wg sync.WaitGroup
	errs := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postReplay(t, ts.URL, tr)
			switch {
			case resp.StatusCode != 200:
				errs[i] = resp.Status
			case !bytes.Equal(body, want):
				errs[i] = "body diverged"
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("client %d: %s", i, e)
		}
	}
	if m := s.cache.misses.Load(); m != 1 {
		t.Errorf("misses = %d, want 1 (single-flight should dedup concurrent identical requests)", m)
	}
	if h := s.cache.hits.Load(); h != clients-1 {
		t.Errorf("hits = %d, want %d", h, clients-1)
	}
}

// TestCacheEviction: the LRU bound holds — filling a 2-entry cache with a
// third key evicts the least recently used one, which then misses again.
func TestCacheEviction(t *testing.T) {
	s, ts := cachedServer(t, 2)
	a, b, c := slowTrace(1), slowTrace(2), slowTrace(3)
	for _, tr := range [][]byte{a, b, c} {
		if resp, body := postReplay(t, ts.URL, tr); resp.StatusCode != 200 {
			t.Fatalf("fill: %s: %s", resp.Status, body)
		}
	}
	if ev := s.cache.evictions.Load(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// a was the LRU victim: it must miss; b and c must still hit.
	resp, _ := postReplay(t, ts.URL, a)
	if got := resp.Header.Get("X-Pg-Cache"); got != "miss" {
		t.Errorf("evicted trace served X-Pg-Cache %q, want miss", got)
	}
	resp, _ = postReplay(t, ts.URL, c)
	if got := resp.Header.Get("X-Pg-Cache"); got != "hit" {
		t.Errorf("resident trace served X-Pg-Cache %q, want hit", got)
	}
}

// TestCacheSpansKeyedSeparately: ?spans=1 changes the response bytes, so it
// must key separately — a cached plain body must never answer a spans
// request, and both shapes must match their offline renderings.
func TestCacheSpansKeyedSeparately(t *testing.T) {
	tr := faultedTrace(t)
	_, ts := cachedServer(t, 64)
	plainWant, err := offlineNDJSON(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	spansWant, err := offlineNDJSON(tr, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, body := postReplay(t, ts.URL, tr); !bytes.Equal(body, plainWant) {
		t.Fatal("plain replay diverged")
	}
	resp, err := http.Post(ts.URL+"/replay?spans=1", "text/plain", bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Pg-Cache"); got != "miss" {
		t.Errorf("spans request after plain request served X-Pg-Cache %q, want miss (separate key)", got)
	}
	if !bytes.Equal(body, spansWant) {
		t.Error("spans replay diverged from the offline traced replay")
	}
	// And the spans entry itself is now cached.
	resp2, err := http.Post(ts.URL+"/replay?spans=1", "text/plain", bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Pg-Cache"); got != "hit" {
		t.Errorf("repeat spans request served X-Pg-Cache %q, want hit", got)
	}
}

// TestCacheMetricsDeterminism: the merged replay-metrics snapshot is a
// function of the served request multiset alone — three serves of one trace
// produce identical merged metrics whether each simulated (cache off) or two
// were cache hits.
func TestCacheMetricsDeterminism(t *testing.T) {
	tr := faultedTrace(t)
	serveThrice := func(cfg Config) []byte {
		s := New(cfg)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for i := 0; i < 3; i++ {
			if resp, body := postReplay(t, ts.URL, tr); resp.StatusCode != 200 {
				t.Fatalf("status %s: %s", resp.Status, body)
			}
		}
		var buf bytes.Buffer
		if err := s.ReplaySnapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	uncached := serveThrice(Config{})
	cached := serveThrice(Config{Snapshots: true, CacheEntries: 64})
	if !bytes.Equal(uncached, cached) {
		t.Errorf("merged replay metrics diverge between cached and uncached serving:\n%s\nvs\n%s",
			uncached, cached)
	}
}
