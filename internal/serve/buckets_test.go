package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cliff"
	"repro/internal/obs"
	"repro/pageguard"
	"repro/trace"
)

// record folds one request's reports into db the way the server handles a
// miss that is then served: register on the worker, count at the 200. It is
// the offline reference the serving tests compare /buckets with.
func (db *bucketDB) record(traceID string, reports []*pageguard.TrapReport) {
	db.count(traceID, db.register(reports))
}

// uafTrace is a minimal trace with one planted use-after-free: object 1 is
// allocated on line 1, freed on line 2, and read on line 3.
const uafTrace = "a 1 64\nf 1\nr 1 0\n"

func getBuckets(t *testing.T, url string) []CrashBucket {
	t.Helper()
	resp, err := http.Get(url + "/buckets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /buckets: %s", resp.Status)
	}
	var body struct {
		Type    string        `json:"type"`
		Buckets []CrashBucket `json:"buckets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode buckets: %v", err)
	}
	if body.Type != "buckets" {
		t.Fatalf("buckets type = %q", body.Type)
	}
	return body.Buckets
}

// TestBucketsAggregateAcrossRequests: every served replay's detections fold
// into the crash-bucket database, deduplicated by (alloc site, free site),
// with counts accumulating across repeats (cache hits included) and
// first/last trace ids tracking the requests.
func TestBucketsAggregateAcrossRequests(t *testing.T) {
	s, ts := cachedServer(t, 16)

	if bs := getBuckets(t, ts.URL); len(bs) != 0 {
		t.Fatalf("fresh server has %d buckets", len(bs))
	}
	for i := 0; i < 3; i++ {
		resp, body := postReplay(t, ts.URL, []byte(uafTrace))
		if resp.StatusCode != 200 {
			t.Fatalf("replay %d: %s: %s", i, resp.Status, body)
		}
	}
	bs := getBuckets(t, ts.URL)
	if len(bs) != 1 {
		t.Fatalf("got %d buckets, want 1: %+v", len(bs), bs)
	}
	b := bs[0]
	if b.AllocSite != "trace:1" || b.FreeSite != "trace:2" {
		t.Errorf("bucket sites = (%q, %q), want (trace:1, trace:2)", b.AllocSite, b.FreeSite)
	}
	if b.Count != 3 {
		t.Errorf("bucket count = %d, want 3 (cache hits must count)", b.Count)
	}
	if b.FirstTraceID == "" || b.LastTraceID == "" || b.FirstTraceID == b.LastTraceID {
		t.Errorf("trace ids not tracked: first=%q last=%q", b.FirstTraceID, b.LastTraceID)
	}
	if b.Representative == nil {
		t.Fatal("bucket has no representative TrapReport")
	}
	if b.Representative.AllocSite != "trace:1" || b.Representative.FreeSite != "trace:2" {
		t.Errorf("representative forensics = (%q, %q)", b.Representative.AllocSite, b.Representative.FreeSite)
	}
	// The same Server handle sees the same database.
	if got := s.Buckets(); len(got) != 1 || got[0].Count != 3 {
		t.Errorf("Server.Buckets() = %+v", got)
	}
}

// TestBucketsSampledCorpusForensics: every corpus trace replayed under the
// sampled tier at rate=1 produces crash buckets whose forensics exactly
// match the detections in the replay body — the sampled always-on
// deployment's bug reports carry full provenance.
func TestBucketsSampledCorpusForensics(t *testing.T) {
	_, ts := cachedServer(t, 16)
	for _, c := range cliff.Corpus() {
		if c.Expect.Dangling == 0 {
			continue
		}
		resp, err := http.Post(ts.URL+"/corpus/"+c.Name+"?sampling=rate=1,seed=3", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %s: %s", c.Name, resp.Status, body)
		}
		// Collect the detections' (alloc, free) site pairs from the body.
		type detLine struct {
			Type   string `json:"type"`
			Report *struct {
				AllocSite string `json:"alloc_site"`
				FreeSite  string `json:"free_site"`
			} `json:"report"`
		}
		wantPairs := map[[2]string]bool{}
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			var d detLine
			if err := json.Unmarshal([]byte(line), &d); err != nil {
				continue
			}
			if d.Type == "detection" && d.Report != nil {
				wantPairs[[2]string{d.Report.AllocSite, d.Report.FreeSite}] = true
			}
		}
		if len(wantPairs) == 0 {
			t.Fatalf("%s: no dangling detections under rate=1 sampling", c.Name)
		}
		got := map[[2]string]bool{}
		for _, b := range getBuckets(t, ts.URL) {
			got[[2]string{b.AllocSite, b.FreeSite}] = true
		}
		for pair := range wantPairs {
			if !got[pair] {
				t.Errorf("%s: detection (%s, %s) missing from /buckets", c.Name, pair[0], pair[1])
			}
		}
	}
}

// postWithID POSTs body to /replay with a client-chosen X-Pg-Trace-Id.
func postWithID(t *testing.T, url, id string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/replay", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Pg-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, readAll(t, resp)
}

func getRaw(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readAll(t, resp)
}

// TestBucketsWaiterServedBeforeLeader: a single-flight waiter can be served
// before its leader writes. The worker registered the representative before
// it completed the flight, so the waiter's 200 counts into a bucket that
// already has one, and /buckets is byte-identical to serving the two
// requests one after the other in the order they were answered.
func TestBucketsWaiterServedBeforeLeader(t *testing.T) {
	tr := faultedTrace(t)
	s, ts := cachedServer(t, 16)
	tf, err := trace.ParseFile(bytes.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	key := rawKeyFor(tr, overrides{})
	_, call, leader := s.cache.begin(key)
	if !leader {
		t.Fatal("first begin did not lead")
	}
	type served struct {
		resp *http.Response
		body []byte
	}
	waiter := make(chan served, 1)
	go func() {
		req, _ := http.NewRequest("POST", ts.URL+"/replay", bytes.NewReader(tr))
		req.Header.Set("X-Pg-Trace-Id", "waiter")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			waiter <- served{}
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Error(err)
		}
		waiter <- served{resp, body}
	}()
	// The waiter joins the leader's flight: begin counts it as a hit.
	for deadline := time.Now().Add(10 * time.Second); s.cache.hits.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiter never joined the flight")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ent, err := s.lead(ctx, key, call, func() (*replayEntry, error) { return s.renderReplay(tf, nil, false) })
	if err != nil {
		t.Fatal(err)
	}
	w := <-waiter
	if w.resp == nil || w.resp.StatusCode != 200 || w.resp.Header.Get("X-Pg-Cache") != "hit" {
		t.Fatalf("waiter not served from the flight: %+v", w.resp)
	}
	// Only now does the leader write its response.
	rec := httptest.NewRecorder()
	rec.Header().Set("X-Pg-Trace-Id", "leader")
	s.writeEntry(rec, httptest.NewRequest("POST", "/replay", nil), ent, "miss", time.Now(), time.Now())
	if !bytes.Equal(rec.Body.Bytes(), w.body) {
		t.Fatal("leader and waiter bodies differ")
	}
	got := getRaw(t, ts.URL+"/buckets")

	_, seq := cachedServer(t, 16)
	for _, id := range []string{"waiter", "leader"} {
		if resp, body := postWithID(t, seq.URL, id, tr); resp.StatusCode != 200 {
			t.Fatalf("sequential %s: %s: %s", id, resp.Status, body)
		}
	}
	if want := getRaw(t, seq.URL+"/buckets"); !bytes.Equal(got, want) {
		t.Fatalf("/buckets with the waiter served first diverges from the sequential order:\n%s\nvs\n%s", got, want)
	}
	bs := s.Buckets()
	if len(bs) == 0 {
		t.Fatal("no buckets after two served detections")
	}
	for _, b := range bs {
		if b.Representative == nil || b.FirstTraceID != "waiter" || b.LastTraceID != "leader" {
			t.Errorf("bucket (%s, %s): representative %v, first %q, last %q",
				b.AllocSite, b.FreeSite, b.Representative != nil, b.FirstTraceID, b.LastTraceID)
		}
	}
}

// capTrace is request k of the cap test: objs objects, each freed and then
// read, with k comment lines before the allocations and k+8-objs between the
// allocations and the frees. Object j is allocated on line k+j and freed on
// line 2k+8+j, so the free-minus-alloc distance names k and the alloc line
// then names j: every (k, j) is its own (alloc site, free site) pair.
func capTrace(k, objs int) []byte {
	var b bytes.Buffer
	b.WriteString(strings.Repeat("#\n", k))
	for j := 1; j <= objs; j++ {
		fmt.Fprintf(&b, "a %d 64\n", j)
	}
	b.WriteString(strings.Repeat("#\n", k+8-objs))
	for j := 1; j <= objs; j++ {
		fmt.Fprintf(&b, "f %d\n", j)
	}
	for j := 1; j <= objs; j++ {
		fmt.Fprintf(&b, "r %d 0\n", j)
	}
	return b.Bytes()
}

// TestBucketRepresentativesOwnTheirFlight: a representative is stored as
// its report's JSON, so the flight decoded from it holds the report's
// events and shares no storage with any report of the replay, whose
// windows are views into one log.
func TestBucketRepresentativesOwnTheirFlight(t *testing.T) {
	reports := replayReports(t, capTrace(0, 8))
	if len(reports) != 8 {
		t.Fatalf("%d reports, want 8", len(reports))
	}
	// The replay's windows overlap, and some share storage. That is what
	// storing the encoding is for.
	shared := false
	for i := 1; i < len(reports); i++ {
		shared = shared || sharedEvent(reports[i-1].Flight, reports[i].Flight)
	}
	if !shared {
		t.Fatal("no two of the replay's flight windows share storage; the test needs a replay where they do")
	}

	db := newBucketDB()
	db.register(reports)
	if len(db.buckets) != len(reports) {
		t.Fatalf("%d buckets, want %d", len(db.buckets), len(reports))
	}
	for _, r := range reports {
		var got pageguard.TrapReport
		if err := json.Unmarshal(inflate(db.buckets[bucketKey{r.AllocSite, r.FreeSite}].rep), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Flight, r.Flight) {
			t.Fatalf("representative of (%s, %s): flight differs from its report's", r.AllocSite, r.FreeSite)
		}
		for _, other := range reports {
			if sharedEvent(got.Flight, other.Flight) {
				t.Fatalf("representative of (%s, %s) shares flight storage with the report of (%s, %s)",
					r.AllocSite, r.FreeSite, other.AllocSite, other.FreeSite)
			}
		}
	}
}

// TestBucketRepresentativesRoundTrip: for plain, faulted and sampled
// replays, Buckets() decodes each representative to the report registered,
// and /buckets serves each as exactly json.Marshal of that report.
func TestBucketRepresentativesRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"cap", capTrace(0, 8)},
		{"faulted", faultedTrace(t)},
		{"sampled", append([]byte("!sampling rate=2,seed=3\n"), capTrace(8, 16)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reports := replayReports(t, tc.body)
			if len(reports) == 0 {
				t.Fatal("replay has no trap reports")
			}
			want := map[bucketKey]*pageguard.TrapReport{}
			for _, r := range reports {
				if k := (bucketKey{r.AllocSite, r.FreeSite}); want[k] == nil {
					want[k] = r
				}
			}
			s := New(Config{})
			s.buckets.record("pg-1", reports)

			bs := s.Buckets()
			if len(bs) != len(want) {
				t.Fatalf("%d buckets, want %d", len(bs), len(want))
			}
			for _, b := range bs {
				if r := want[bucketKey{b.AllocSite, b.FreeSite}]; !reflect.DeepEqual(b.Representative, r) {
					t.Errorf("(%s, %s): Buckets() representative differs from the report registered", b.AllocSite, b.FreeSite)
				}
			}

			rec := httptest.NewRecorder()
			s.handleBuckets(rec, httptest.NewRequest("GET", "/buckets", nil))
			var served struct {
				Buckets []struct {
					AllocSite      string          `json:"alloc_site"`
					FreeSite       string          `json:"free_site"`
					Representative json.RawMessage `json:"representative"`
				} `json:"buckets"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
				t.Fatal(err)
			}
			if len(served.Buckets) != len(want) {
				t.Fatalf("/buckets serves %d buckets, want %d", len(served.Buckets), len(want))
			}
			for _, b := range served.Buckets {
				wantJSON, err := json.Marshal(want[bucketKey{b.AllocSite, b.FreeSite}])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b.Representative, wantJSON) {
					t.Errorf("(%s, %s): /buckets representative is not json.Marshal of the report", b.AllocSite, b.FreeSite)
				}
			}
		})
	}
}

// replayReports replays body on a fresh machine and returns its trap
// reports.
func replayReports(t *testing.T, body []byte) []*pageguard.TrapReport {
	t.Helper()
	tf, err := trace.ParseFile(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
	if err != nil {
		t.Fatal(err)
	}
	return detectionReports(rep)
}

// sharedEvent reports whether a and b hold an event of the same Seq at the
// same address. Windows keep their events in Seq order, one per Seq, so
// two windows over one array do exactly where they overlap.
func sharedEvent(a, b []pageguard.FlightEvent) bool {
	for i := range a {
		for j := range b {
			if a[i].Seq == b[j].Seq && &a[i] == &b[j] {
				return true
			}
		}
	}
	return false
}

// TestBucketsCap: maxBuckets+5 distinct signatures fill the database with
// the first maxBuckets in request order, and the five that arrive after it
// is full each count once into pgserved_buckets_dropped_total. A repeat of
// the last request, answered from the cache, counts its dropped detections
// again. /metrics/replay.json is untouched by the cap: it is still the
// offline sum of the replays' metrics, and the host-side drop counter is not
// in it.
func TestBucketsCap(t *testing.T) {
	const pairs = maxBuckets + 5
	var requests [][]byte
	for k := 0; k*8 < pairs; k++ {
		requests = append(requests, capTrace(k, min(8, pairs-k*8)))
	}
	var wantMetrics obs.Snapshot
	admitted := map[bucketKey]bool{}
	for _, body := range requests {
		tf, err := trace.ParseFile(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := trace.Replay(trace.NewMachine(tf), tf.Events)
		if err != nil {
			t.Fatal(err)
		}
		wantMetrics.Add(rep.Metrics)
		for _, r := range detectionReports(rep) {
			if len(admitted) < maxBuckets {
				admitted[bucketKey{r.AllocSite, r.FreeSite}] = true
			}
		}
	}
	if len(admitted) != maxBuckets {
		t.Fatalf("the requests carry %d signatures before the cap, want %d", len(admitted), maxBuckets)
	}
	var metricsWant bytes.Buffer
	if err := wantMetrics.WriteJSON(&metricsWant); err != nil {
		t.Fatal(err)
	}

	s, ts := cachedServer(t, 1024)
	for i, body := range requests {
		if resp, got := postReplay(t, ts.URL, body); resp.StatusCode != 200 {
			t.Fatalf("request %d: %s: %s", i, resp.Status, got)
		}
	}
	bs := s.Buckets()
	if len(bs) != maxBuckets {
		t.Fatalf("%d buckets, want the cap %d", len(bs), maxBuckets)
	}
	for _, b := range bs {
		if !admitted[bucketKey{b.AllocSite, b.FreeSite}] || b.Count != 1 || b.Representative == nil {
			t.Fatalf("bucket (%s, %s) count %d: not one of the first %d signatures, counted once, with a representative",
				b.AllocSite, b.FreeSite, b.Count, maxBuckets)
		}
	}
	dropped := func() uint64 { return s.HostSnapshot().Counter("pgserved_buckets_dropped_total") }
	if got := dropped(); got != 5 {
		t.Fatalf("pgserved_buckets_dropped_total = %d, want 5", got)
	}
	replayJSON := getRaw(t, ts.URL+"/metrics/replay.json")
	if !bytes.Equal(replayJSON, metricsWant.Bytes()) {
		t.Errorf("/metrics/replay.json diverges from the offline sum under the cap")
	}
	if bytes.Contains(replayJSON, []byte("buckets_dropped")) {
		t.Error("the host-side drop counter leaked into /metrics/replay.json")
	}

	resp, _ := postReplay(t, ts.URL, requests[len(requests)-1])
	if resp.StatusCode != 200 || resp.Header.Get("X-Pg-Cache") != "hit" {
		t.Fatalf("repeat of the last request: %s, X-Pg-Cache %q", resp.Status, resp.Header.Get("X-Pg-Cache"))
	}
	if got := dropped(); got != 10 {
		t.Errorf("after a cached repeat, pgserved_buckets_dropped_total = %d, want 10", got)
	}
	if got := len(s.Buckets()); got != maxBuckets {
		t.Errorf("a cached repeat changed the bucket count to %d", got)
	}
}
