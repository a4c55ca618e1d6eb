package serve

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/pageguard"
)

// The crash-bucket database. A sampled always-on deployment surfaces
// dangling-pointer detections as TrapReports scattered across thousands of
// replay requests; what an oncall actually triages is the deduplicated
// (alloc site, free site) signature — the bug, not its occurrences. A miss
// registers its detections' reports on the worker, before its flight
// completes: a signature seen for the first time gets its bucket and its
// representative there. Every 200 replay response (leader, single-flight
// waiter, cache hit, corpus-served) then counts its detections by key
// alone, so no cached entry keeps a report. GET /buckets
// serves the database as deterministic JSON. Each process keeps its own;
// fleet coverage comes from aggregating per-process databases offline.

// CrashBucket is one deduplicated crash signature.
type CrashBucket struct {
	// AllocSite and FreeSite form the bucket key: a dangling-pointer bug is
	// identified by where the object was allocated and where it was freed.
	AllocSite string `json:"alloc_site"`
	FreeSite  string `json:"free_site"`
	// Count is the number of served detections counted into this bucket.
	Count uint64 `json:"count"`
	// FirstTraceID and LastTraceID are the X-Pg-Trace-Id values of the
	// earliest and latest requests that hit the bucket, for log correlation.
	FirstTraceID string `json:"first_trace_id"`
	LastTraceID  string `json:"last_trace_id"`
	// Representative is the first TrapReport registered for the signature —
	// one full forensic record per bucket is enough to debug it. The
	// database keeps it as its JSON, deflated.
	Representative *pageguard.TrapReport `json:"representative,omitempty"`
}

// bucketKey identifies a CrashBucket.
type bucketKey struct {
	allocSite, freeSite string
}

// bucket is what the database keeps of a CrashBucket: its counts, and its
// representative as the JSON /buckets serves, deflated. The representative
// owns those bytes, so it keeps no flight window of the replay that
// registered it alive.
type bucket struct {
	count                     uint64
	firstTraceID, lastTraceID string
	rep                       []byte
}

// maxBuckets bounds the crash-bucket database. Its signatures are trace line
// pairs, so distinct traces could otherwise grow it, and the representatives
// it keeps, without limit. A full database admits no new signature and
// evicts none, so /buckets stays a function of the request order.
const maxBuckets = 1024

// bucketDB aggregates detections into crash buckets. Safe for concurrent
// use.
type bucketDB struct {
	mu sync.Mutex
	// buckets holds every registered signature. A bucket no served request
	// has counted yet has count 0 and is left out of snapshot.
	buckets map[bucketKey]*bucket
	// dropped counts served detections whose signature the full database
	// did not admit.
	dropped atomic.Uint64
}

func newBucketDB() *bucketDB {
	return &bucketDB{buckets: make(map[bucketKey]*bucket)}
}

// register returns one key per report, in order. A report whose signature
// has no bucket yet creates one, with count 0 and the report as its
// representative, unless the database already holds maxBuckets buckets.
// The representative is encoded and deflated outside the lock; when two
// registrations race to create one bucket, the first to insert it wins.
func (db *bucketDB) register(reports []*pageguard.TrapReport) []bucketKey {
	if len(reports) == 0 {
		return nil
	}
	keys := make([]bucketKey, len(reports))
	var fresh []int // reports whose signature had no bucket, first of each
	db.mu.Lock()
	for i, rep := range reports {
		k := bucketKey{allocSite: rep.AllocSite, freeSite: rep.FreeSite}
		keys[i] = k
		if _, ok := db.buckets[k]; !ok && !slices.ContainsFunc(fresh, func(j int) bool { return keys[j] == k }) {
			fresh = append(fresh, i)
		}
	}
	db.mu.Unlock()
	for _, i := range fresh {
		rep, err := deflateReport(reports[i])
		if err != nil {
			continue
		}
		db.mu.Lock()
		if _, ok := db.buckets[keys[i]]; !ok && len(db.buckets) < maxBuckets {
			db.buckets[keys[i]] = &bucket{rep: rep}
		}
		db.mu.Unlock()
	}
	return keys
}

// deflater is a flate writer (each allocates several hundred KB) and the
// buffer it writes into, pooled together.
type deflater struct {
	buf bytes.Buffer
	w   *flate.Writer
}

var deflaters = sync.Pool{New: func() any {
	d := new(deflater)
	d.w, _ = flate.NewWriter(&d.buf, flate.BestSpeed)
	return d
}}

// deflateReport returns rep's JSON encoding, deflated into an exact-size
// slice.
func deflateReport(rep *pageguard.TrapReport) ([]byte, error) {
	data, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	d.buf.Reset()
	d.w.Reset(&d.buf)
	if _, err := d.w.Write(data); err != nil {
		return nil, err
	}
	if err := d.w.Close(); err != nil {
		return nil, err
	}
	return bytes.Clone(d.buf.Bytes()), nil
}

// inflate returns the JSON a representative was deflated from. The
// database wrote those bytes itself, so failing to read them back is a
// broken invariant.
func inflate(rep []byte) json.RawMessage {
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(rep)))
	if err != nil {
		panic("serve: crash-bucket representative does not inflate: " + err.Error())
	}
	return raw
}

// count folds one served request's detections into their buckets. traceID
// is the request's correlation id. A key with no bucket was not admitted and
// counts as dropped.
func (db *bucketDB) count(traceID string, keys []bucketKey) {
	if len(keys) == 0 {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, k := range keys {
		b := db.buckets[k]
		if b == nil {
			db.dropped.Add(1)
			continue
		}
		if b.count == 0 {
			b.firstTraceID = traceID
		}
		b.count++
		b.lastTraceID = traceID
	}
}

// bucketJSON is a CrashBucket as /buckets serves it: the representative is
// the JSON it was registered as.
type bucketJSON struct {
	AllocSite      string          `json:"alloc_site"`
	FreeSite       string          `json:"free_site"`
	Count          uint64          `json:"count"`
	FirstTraceID   string          `json:"first_trace_id"`
	LastTraceID    string          `json:"last_trace_id"`
	Representative json.RawMessage `json:"representative,omitempty"`
}

// snapshot returns the counted buckets sorted by (alloc site, free site) —
// a deterministic order for diffing two servers' databases — with their
// representatives inflated.
func (db *bucketDB) snapshot() []bucketJSON {
	db.mu.Lock()
	out := make([]bucketJSON, 0, len(db.buckets))
	for k, b := range db.buckets {
		if b.count > 0 {
			out = append(out, bucketJSON{
				AllocSite: k.allocSite, FreeSite: k.freeSite, Count: b.count,
				FirstTraceID: b.firstTraceID, LastTraceID: b.lastTraceID,
				Representative: b.rep,
			})
		}
	}
	db.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].AllocSite != out[j].AllocSite {
			return out[i].AllocSite < out[j].AllocSite
		}
		return out[i].FreeSite < out[j].FreeSite
	})
	for i := range out {
		out[i].Representative = inflate(out[i].Representative)
	}
	return out
}

// bucketsBody is the GET /buckets JSON schema.
type bucketsBody struct {
	Type    string       `json:"type"` // "buckets"
	Buckets []bucketJSON `json:"buckets"`
}

// handleBuckets serves the server's crash-bucket database.
func (s *Server) handleBuckets(w http.ResponseWriter, r *http.Request) {
	writeBuckets(w, s.buckets.snapshot())
}

func writeBuckets(w http.ResponseWriter, bs []bucketJSON) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(bucketsBody{Type: "buckets", Buckets: bs})
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}

// Buckets returns a copy of the server's crash-bucket database (tests and
// embedding callers), each representative decoded from its stored JSON.
func (s *Server) Buckets() []CrashBucket {
	bs := s.buckets.snapshot()
	out := make([]CrashBucket, len(bs))
	for i, b := range bs {
		out[i] = CrashBucket{
			AllocSite: b.AllocSite, FreeSite: b.FreeSite, Count: b.Count,
			FirstTraceID: b.FirstTraceID, LastTraceID: b.LastTraceID,
			Representative: new(pageguard.TrapReport),
		}
		if err := json.Unmarshal(b.Representative, out[i].Representative); err != nil {
			panic("serve: crash-bucket representative does not decode: " + err.Error())
		}
	}
	return out
}
