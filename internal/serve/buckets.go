package serve

import (
	"encoding/json"
	"net/http"
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
// waiter, raw or canonical cache hit, corpus-served) then counts its
// detections by key alone, so no cached entry keeps a report. GET /buckets
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
	// one full forensic record per bucket is enough to debug it.
	Representative *pageguard.TrapReport `json:"representative,omitempty"`
}

// bucketKey identifies a CrashBucket.
type bucketKey struct {
	allocSite, freeSite string
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
	// has counted yet has Count 0 and is left out of snapshot.
	buckets map[bucketKey]*CrashBucket
	// dropped counts served detections whose signature the full database
	// did not admit.
	dropped atomic.Uint64
}

func newBucketDB() *bucketDB {
	return &bucketDB{buckets: make(map[bucketKey]*CrashBucket)}
}

// register returns one key per report, in order. A report whose signature
// has no bucket yet creates one, with Count 0 and the report as its
// representative, unless the database already holds maxBuckets buckets.
func (db *bucketDB) register(reports []*pageguard.TrapReport) []bucketKey {
	if len(reports) == 0 {
		return nil
	}
	keys := make([]bucketKey, 0, len(reports))
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, rep := range reports {
		k := bucketKey{allocSite: rep.AllocSite, freeSite: rep.FreeSite}
		if _, ok := db.buckets[k]; !ok && len(db.buckets) < maxBuckets {
			cp := *rep
			db.buckets[k] = &CrashBucket{AllocSite: k.allocSite, FreeSite: k.freeSite, Representative: &cp}
		}
		keys = append(keys, k)
	}
	return keys
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
		if b.Count == 0 {
			b.FirstTraceID = traceID
		}
		b.Count++
		b.LastTraceID = traceID
	}
}

// snapshot returns the buckets sorted by (alloc site, free site) — a
// deterministic order for diffing two servers' databases.
func (db *bucketDB) snapshot() []CrashBucket {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]CrashBucket, 0, len(db.buckets))
	for _, b := range db.buckets {
		if b.Count > 0 {
			out = append(out, *b)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AllocSite != out[j].AllocSite {
			return out[i].AllocSite < out[j].AllocSite
		}
		return out[i].FreeSite < out[j].FreeSite
	})
	return out
}

// bucketsBody is the GET /buckets JSON schema.
type bucketsBody struct {
	Type    string        `json:"type"` // "buckets"
	Buckets []CrashBucket `json:"buckets"`
}

// handleBuckets serves the server's crash-bucket database.
func (s *Server) handleBuckets(w http.ResponseWriter, r *http.Request) {
	writeBuckets(w, s.buckets.snapshot())
}

func writeBuckets(w http.ResponseWriter, bs []CrashBucket) {
	w.Header().Set("Content-Type", "application/json")
	data, err := json.Marshal(bucketsBody{Type: "buckets", Buckets: bs})
	if err != nil {
		return
	}
	w.Write(append(data, '\n'))
}

// Buckets returns a copy of the server's crash-bucket database (tests and
// embedding callers).
func (s *Server) Buckets() []CrashBucket { return s.buckets.snapshot() }
