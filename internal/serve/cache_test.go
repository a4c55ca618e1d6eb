package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/trace"
)

// cachedServer boots a server whose content-hash cache holds the given
// number of entries.
func cachedServer(t *testing.T, entries int) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{CacheEntries: entries})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postQuery POSTs body to /replay with the query string q ("" or "?...").
func postQuery(t *testing.T, url, q string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/replay"+q, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// blankVariant is tr with blanks around every line and a comment after the
// last event: other bytes, and so another cache key, for the same events on
// the same lines and so the same response.
func blankVariant(tr []byte, comment string) []byte {
	v := bytes.ReplaceAll(tr, []byte("\n"), []byte(" \t\n\v"))
	return append(v, "# "+comment+"\n"...)
}

// TestCacheHitByteIdentity: repeat requests are served from the cache
// (X-Pg-Cache flips miss -> hit) with bodies byte-identical to the offline
// replay, and the hit/miss counters account for every request. The cache
// key is the request's bytes: a body that differs only in blanks and
// comments misses once, serves the same body, and its own repeat hits. Each
// response-changing query parameter on the same bytes, and a comment that
// moves the events to other lines, misses and serves its own body.
func TestCacheHitByteIdentity(t *testing.T) {
	tr := faultedTrace(t)
	want, err := offlineNDJSON(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	variant := blankVariant(tr, "recorded by pgtrace")
	s, ts := cachedServer(t, 64)
	for i, step := range []struct {
		body  []byte
		state string
	}{
		{tr, "miss"},
		{tr, "hit"},
		{tr, "hit"},
		{variant, "miss"},
		{variant, "hit"},
	} {
		resp, body := postReplay(t, ts.URL, step.body)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %s: %s", i, resp.Status, body)
		}
		if got := resp.Header.Get("X-Pg-Cache"); got != step.state {
			t.Errorf("request %d: X-Pg-Cache = %q, want %q", i, got, step.state)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("request %d (%s) diverged from the offline replay", i, step.state)
		}
	}
	if h, m := s.cache.hits.Load(), s.cache.misses.Load(); h != 3 || m != 2 {
		t.Errorf("hits=%d misses=%d, want 3/2", h, m)
	}

	// The same bytes under each parameter. The leading comment line makes
	// room for the directive the parameter stands for in the offline
	// reference, so both put every event on the same line.
	body := []byte("#\n" + uafTrace)
	for _, tc := range []struct {
		query, directive string
		spans            bool
	}{
		{"", "#", false},
		{"?sampling=rate=64,seed=3", "!sampling rate=64,seed=3", false},
		{"?guards=1", "!guards", false},
		{"?spans=1", "#", true},
	} {
		want, err := offlineNDJSON([]byte(tc.directive+"\n"+uafTrace), tc.spans)
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"miss", "hit"} {
			resp, got := postQuery(t, ts.URL, tc.query, body)
			if resp.StatusCode != 200 {
				t.Fatalf("%q: status %s: %s", tc.query, resp.Status, got)
			}
			if st := resp.Header.Get("X-Pg-Cache"); st != state {
				t.Errorf("%q: X-Pg-Cache = %q, want %q", tc.query, st, state)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%q (%s) diverged from the offline replay of %q", tc.query, state, tc.directive)
			}
		}
		if tc.query != "" && bytes.Equal(want, mustOffline(t, body)) {
			t.Errorf("%q: reference body equals the plain one; the case checks nothing", tc.query)
		}
	}

	// Detection sites name source lines, so a comment that moves every
	// event down a line is a different response.
	resp, got := postReplay(t, ts.URL, append([]byte("#\n#\n"), tr...))
	if st := resp.Header.Get("X-Pg-Cache"); st != "miss" {
		t.Errorf("line-shifted trace: X-Pg-Cache = %q, want miss", st)
	}
	if !bytes.Equal(got, mustOffline(t, append([]byte("#\n#\n"), tr...))) {
		t.Error("line-shifted trace diverged from its offline replay")
	}
}

func mustOffline(t *testing.T, tr []byte) []byte {
	t.Helper()
	b, err := offlineNDJSON(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheSingleFlight: concurrent identical requests simulate once — the
// leader replays, every waiter is served the same entry, and the miss counter
// records exactly one simulation. A second concurrent round mixes repeats of
// the cached bytes with two blank variants, each sent by two clients at
// once: every variant is other bytes, so it simulates once and its twin is
// served from that one simulation.
func TestCacheSingleFlight(t *testing.T) {
	tr := slowTrace(800)
	want, err := offlineNDJSON(tr, false)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := cachedServer(t, 64)
	const clients = 8
	round := func(body func(i int) []byte) {
		var wg sync.WaitGroup
		errs := make([]string, clients)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, got := postReplay(t, ts.URL, body(i))
				switch {
				case resp.StatusCode != 200:
					errs[i] = resp.Status
				case !bytes.Equal(got, want):
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
	}
	round(func(int) []byte { return tr })
	if m := s.cache.misses.Load(); m != 1 {
		t.Errorf("misses = %d, want 1 (single-flight should dedup concurrent identical requests)", m)
	}
	if h := s.cache.hits.Load(); h != clients-1 {
		t.Errorf("hits = %d, want %d", h, clients-1)
	}

	round(func(i int) []byte {
		if i >= clients/2 {
			return blankVariant(tr, fmt.Sprint(i%2))
		}
		return tr
	})
	if m, h := s.cache.misses.Load(), s.cache.hits.Load(); m != 3 || h != 2*clients-3 {
		t.Errorf("misses=%d hits=%d, want 3/%d", m, h, 2*clients-3)
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

// TestCacheMetricsDeterminism: the merged replay-metrics snapshot and the
// crash-bucket database are functions of the served request multiset alone.
// Most of these requests are answered from the cache, and a blank variant
// misses once and then hits, yet /metrics/replay.json and /buckets are
// byte-identical to the ones computed offline: each request's fresh-machine replay metrics summed,
// and its TrapReports recorded under the trace id the server assigns it.
func TestCacheMetricsDeterminism(t *testing.T) {
	tr := faultedTrace(t)
	variant := blankVariant(tr, "variant")
	requests := [][]byte{tr, tr, tr, variant, variant, []byte(uafTrace), tr, []byte(uafTrace)}

	var wantMetrics obs.Snapshot
	db := newBucketDB()
	for i, body := range requests {
		tf, err := trace.ParseFile(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
		if err != nil {
			t.Fatal(err)
		}
		wantMetrics.Add(rep.Metrics)
		db.record(fmt.Sprintf("pg-%08x", i+1), detectionReports(rep))
	}
	var metricsWant bytes.Buffer
	if err := wantMetrics.WriteJSON(&metricsWant); err != nil {
		t.Fatal(err)
	}
	bucketsWant := httptest.NewRecorder()
	writeBuckets(bucketsWant, db.snapshot())

	s, ts := cachedServer(t, 64)
	for _, body := range requests {
		if resp, got := postReplay(t, ts.URL, body); resp.StatusCode != 200 {
			t.Fatalf("status %s: %s", resp.Status, got)
		}
	}
	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, resp)
	}
	if h, m := s.cache.hits.Load(), s.cache.misses.Load(); h != 5 || m != 3 {
		t.Errorf("hits=%d misses=%d, want 5/3", h, m)
	}
	if got := get("/metrics/replay.json"); !bytes.Equal(got, metricsWant.Bytes()) {
		t.Errorf("merged replay metrics diverge from the offline sum:\n%s\nvs\n%s", got, metricsWant.Bytes())
	}
	if got := get("/buckets"); !bytes.Equal(got, bucketsWant.Body.Bytes()) {
		t.Errorf("crash buckets diverge from the offline replays' reports:\n%s\nvs\n%s", got, bucketsWant.Body.Bytes())
	}
}

// TestCacheServesSegmentedBodies: a detection-dense body is cached as its
// literal bytes and many segments, the span stream as a literal tail. Its
// miss and its hit, plain and with ?spans=1, are each byte-identical to the
// offline replay pgtrace -ndjson (-spans) prints.
func TestCacheServesSegmentedBodies(t *testing.T) {
	s, ts := cachedServer(t, 8)
	tr := detectTrace(3)
	var plainSegs int
	for _, q := range []string{"", "?spans=1"} {
		spans := q != ""
		want, err := offlineNDJSON(tr, spans)
		if err != nil {
			t.Fatal(err)
		}
		for _, state := range []string{"miss", "hit"} {
			resp, body := postQuery(t, ts.URL, q, tr)
			if resp.StatusCode != 200 {
				t.Fatalf("%q %s: status %s: %s", q, state, resp.Status, body)
			}
			if got := resp.Header.Get("X-Pg-Cache"); got != state {
				t.Errorf("%q: X-Pg-Cache = %q, want %q", q, got, state)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%q %s: %d-byte body diverged from the %d-byte offline replay", q, state, len(body), len(want))
			}
		}
		s.cache.mu.Lock()
		ent := s.cache.entries[rawKeyFor(tr, overrides{spans: spans})].Value.(*lruItem).ent
		s.cache.mu.Unlock()
		segs, last := len(ent.body.Segs), ent.body.Segs[len(ent.body.Segs)-1]
		if !spans {
			plainSegs = segs
			if segs < 10 || 4*len(ent.body.Literal) > len(want) {
				t.Errorf("plain body: %d segments, %d literal bytes of %d, want a multi-segment body with under a quarter literal", segs, len(ent.body.Literal), len(want))
			}
		} else if segs != plainSegs || last.Off+last.Len != len(ent.body.Literal) {
			t.Errorf("spans body: %d segments ending at %d of a %d-byte literal, want the plain body's %d with the spans in its literal tail", segs, last.Off+last.Len, len(ent.body.Literal), plainSegs)
		}
	}
}

// danglingTrace is a distinct trace per i: i+1 objects of i-dependent size,
// each read once after its free, so bodies carry trap reports with flight
// windows and differ in length.
func danglingTrace(i int) []byte {
	var b bytes.Buffer
	for id := 1; id <= i+1; id++ {
		fmt.Fprintf(&b, "a %d %d\nw %d 0\nf %d\nr %d 8\n", id, 64+16*i, id, id, id)
	}
	return b.Bytes()
}

// TestRenderScratchNeverAliasesCachedBodies: misses render into pooled
// scratch buffers, and a cached body must never share one. Concurrent
// distinct misses, with and without spans, fill the cache; a second wave
// of distinct misses reuses the pool; then every first-wave body is fetched
// again as a hit and must still equal its offline replay byte for byte.
// CI runs it under -race -count=10.
func TestRenderScratchNeverAliasesCachedBodies(t *testing.T) {
	const perWave = 8
	s, ts := cachedServer(t, 4*perWave)
	query := func(i int) string {
		if i%3 == 0 {
			return "?spans=1"
		}
		return ""
	}
	want := make([][]byte, 2*perWave)
	for i := range want {
		var err error
		if want[i], err = offlineNDJSON(danglingTrace(i), query(i) != ""); err != nil {
			t.Fatal(err)
		}
	}
	wave := func(from, to int, state string) {
		var wg sync.WaitGroup
		errs := make([]string, to-from)
		for i := from; i < to; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/replay"+query(i), "text/plain", bytes.NewReader(danglingTrace(i)))
				if err != nil {
					errs[i-from] = err.Error()
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					errs[i-from] = err.Error()
				case resp.StatusCode != 200:
					errs[i-from] = resp.Status
				case resp.Header.Get("X-Pg-Cache") != state:
					errs[i-from] = "X-Pg-Cache " + resp.Header.Get("X-Pg-Cache") + ", want " + state
				case !bytes.Equal(got, want[i]):
					errs[i-from] = state + " body diverged from the offline replay"
				}
			}(i)
		}
		wg.Wait()
		for k, e := range errs {
			if e != "" {
				t.Errorf("trace %d: %s", from+k, e)
			}
		}
	}
	wave(0, perWave, "miss")
	wave(perWave, 2*perWave, "miss")
	wave(0, perWave, "hit")
	if m := s.cache.misses.Load(); m != 2*perWave {
		t.Errorf("misses = %d, want %d", m, 2*perWave)
	}
}
