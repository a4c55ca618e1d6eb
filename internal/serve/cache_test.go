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
// last event: other bytes, the same canonical trace, every event on the
// line it had.
func blankVariant(tr []byte, comment string) []byte {
	v := bytes.ReplaceAll(tr, []byte("\n"), []byte(" \t\n\v"))
	return append(v, "# "+comment+"\n"...)
}

// TestCacheHitByteIdentity: repeat requests are served from the cache
// (X-Pg-Cache flips miss -> hit) with bodies byte-identical to the offline
// replay, and the hit/miss counters account for every request. A repeat of
// the same bytes is answered from the raw-body index; a body that differs
// only in blanks and comments reaches the same canonical entry, and its own
// repeat is then a raw hit. Each response-changing query parameter on the
// same bytes, and a comment that moves the events to other lines, misses
// and serves its own body.
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
		raw   bool
	}{
		{tr, "miss", false},
		{tr, "hit", true},
		{tr, "hit", true},
		{variant, "hit", false},
		{variant, "hit", true},
	} {
		rawBefore := s.cache.rawHits.Load()
		resp, body := postReplay(t, ts.URL, step.body)
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %s: %s", i, resp.Status, body)
		}
		if got := resp.Header.Get("X-Pg-Cache"); got != step.state {
			t.Errorf("request %d: X-Pg-Cache = %q, want %q", i, got, step.state)
		}
		if raw := s.cache.rawHits.Load() > rawBefore; raw != step.raw {
			t.Errorf("request %d: raw-index hit = %v, want %v", i, raw, step.raw)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("request %d (%s) diverged from the offline replay", i, step.state)
		}
	}
	if h, m, r := s.cache.hits.Load(), s.cache.misses.Load(), s.cache.rawHits.Load(); h != 4 || m != 1 || r != 3 {
		t.Errorf("hits=%d misses=%d raw hits=%d, want 4/1/3", h, m, r)
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

// TestCacheRawAliasBound: the raw index stores at most maxAliases raw keys
// per entry, whatever the number of distinct bodies that share it, keeping
// the most recent ones.
func TestCacheRawAliasBound(t *testing.T) {
	tr := slowTrace(4)
	want := mustOffline(t, tr)
	s, ts := cachedServer(t, 64)
	variants := make([][]byte, 100)
	for i := range variants {
		variants[i] = blankVariant(tr, fmt.Sprintf("variant %d", i))
		if resp, body := postReplay(t, ts.URL, variants[i]); resp.StatusCode != 200 || !bytes.Equal(body, want) {
			t.Fatalf("variant %d: status %s, body diverged=%v", i, resp.Status, !bytes.Equal(body, want))
		}
	}
	s.cache.mu.Lock()
	raw, entries := len(s.cache.raw), len(s.cache.entries)
	s.cache.mu.Unlock()
	if entries != 1 || raw > maxAliases {
		t.Fatalf("%d entries, %d raw aliases; want 1 entry and at most %d aliases", entries, raw, maxAliases)
	}
	// Newest first: a repeat answered by the index changes no alias, while
	// one that parses aliases itself and drops the entry's oldest alias.
	for i := len(variants) - 1; i >= 0; i-- {
		v := variants[i]
		before := s.cache.rawHits.Load()
		resp, body := postReplay(t, ts.URL, v)
		if resp.Header.Get("X-Pg-Cache") != "hit" || !bytes.Equal(body, want) {
			t.Fatalf("variant %d repeat: X-Pg-Cache %q, body diverged=%v", i, resp.Header.Get("X-Pg-Cache"), !bytes.Equal(body, want))
		}
		if wantRaw := i >= len(variants)-maxAliases; (s.cache.rawHits.Load() > before) != wantRaw {
			t.Errorf("variant %d repeat: raw hit = %v, want %v", i, !wantRaw, wantRaw)
		}
	}
}

// TestCacheEvictionDropsRawAliases: an evicted entry takes its raw aliases
// with it, and a repeat of the evicted trace's bytes parses, misses and
// serves a correct body.
func TestCacheEvictionDropsRawAliases(t *testing.T) {
	s, ts := cachedServer(t, 1)
	a, b := slowTrace(1), slowTrace(2)
	for _, tr := range [][]byte{a, a, b} {
		if resp, body := postReplay(t, ts.URL, tr); resp.StatusCode != 200 {
			t.Fatalf("status %s: %s", resp.Status, body)
		}
	}
	s.cache.mu.Lock()
	_, aliasA := s.cache.raw[rawKeyFor(a, overrides{})]
	_, aliasB := s.cache.raw[rawKeyFor(b, overrides{})]
	raw := len(s.cache.raw)
	s.cache.mu.Unlock()
	if aliasA || !aliasB || raw != 1 {
		t.Fatalf("after evicting a: alias a=%v, alias b=%v, %d aliases; want false, true, 1", aliasA, aliasB, raw)
	}
	before := s.cache.rawHits.Load()
	resp, body := postReplay(t, ts.URL, a)
	if got := resp.Header.Get("X-Pg-Cache"); got != "miss" {
		t.Errorf("evicted trace served X-Pg-Cache %q, want miss", got)
	}
	if s.cache.rawHits.Load() != before {
		t.Error("evicted trace was answered from the raw index")
	}
	if !bytes.Equal(body, mustOffline(t, a)) {
		t.Error("evicted trace's repeat diverged from the offline replay")
	}
}

// TestCacheSingleFlight: concurrent identical requests simulate once — the
// leader replays, every waiter is served the same entry, and the miss counter
// records exactly one simulation. A second concurrent round mixes repeats,
// answered from the raw index, with blank variants that parse and alias
// themselves at the same time.
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

	// Three variants plus tr's own alias stay within maxAliases, so every
	// repeat of tr is a raw hit whatever the interleaving. (A late client of
	// the first round may already have been one.)
	rawBefore := s.cache.rawHits.Load()
	round(func(i int) []byte {
		if i%2 == 1 && i < 6 {
			return blankVariant(tr, fmt.Sprint(i))
		}
		return tr
	})
	if m, h, r := s.cache.misses.Load(), s.cache.hits.Load(), s.cache.rawHits.Load()-rawBefore; m != 1 || h != 2*clients-1 || r != clients-3 {
		t.Errorf("misses=%d hits=%d second-round raw hits=%d, want 1/%d/%d", m, h, r, 2*clients-1, clients-3)
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
// Most of these requests are answered from the cache, raw-index hits
// included, yet /metrics/replay.json and /buckets are byte-identical to the
// ones computed offline: each request's fresh-machine replay metrics summed,
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
	if r := s.cache.rawHits.Load(); r != 5 {
		t.Errorf("raw hits = %d, want 5", r)
	}
	if got := get("/metrics/replay.json"); !bytes.Equal(got, metricsWant.Bytes()) {
		t.Errorf("merged replay metrics diverge from the offline sum:\n%s\nvs\n%s", got, metricsWant.Bytes())
	}
	if got := get("/buckets"); !bytes.Equal(got, bucketsWant.Body.Bytes()) {
		t.Errorf("crash buckets diverge from the offline replays' reports:\n%s\nvs\n%s", got, bucketsWant.Body.Bytes())
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
