package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/trace"
)

// rawKey is the cache key: it identifies one request as it arrived, the
// SHA-256 of the body bytes and every response-changing query parameter,
// each length-prefixed. A response is a deterministic function of exactly
// these (the parse is deterministic and the overrides are applied to its
// result), so two requests with one key are owed the same bytes; that is
// what makes memoizing them sound. A trace that differs from a cached one
// only in blanks or comments is other bytes, and simulates once itself.
type rawKey [sha256.Size]byte

func rawKeyFor(body []byte, o overrides) rawKey {
	h := sha256.New()
	var n [8]byte
	for _, field := range [...][]byte{body, []byte(o.faults), []byte(o.sampling), {flag(o.guards), flag(o.spans)}} {
		binary.BigEndian.PutUint64(n[:], uint64(len(field)))
		h.Write(n[:])
		h.Write(field)
	}
	var k rawKey
	h.Sum(k[:0])
	return k
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// replayEntry is one memoized replay result: only what serving it again
// needs. That is the response body in the segmented form the render left
// it in, an exact-size copy of its literal bytes and of the segments that
// spell the body out of them (so a flight event repeated across trap
// reports is kept once), the per-process metrics snapshot that merges into
// the fleet aggregate on every serve (hit or miss), one crash-bucket key
// per detection (cached serves still represent served
// requests and must count; the miss that rendered the entry registered the
// representatives), and the span/cycle summary for /debug/spans. It keeps no
// TrapReport: the body is all a hit needs, and the reports would keep their
// replay's flight log alive.
type replayEntry struct {
	body    trace.Body
	metrics obs.Snapshot
	keys    []bucketKey
	spans   int
	leaf    uint64
	charged uint64
}

// inflightReplay is the single-flight rendezvous for one key: the first
// request (the leader) simulates; concurrent identical requests wait on done
// and read ent/err instead of simulating the same trace again.
type inflightReplay struct {
	done chan struct{}
	ent  *replayEntry
	err  error
	// settled flips (under the cache mutex) when the flight's outcome is
	// published and done closed; later complete calls for the same flight
	// may still store an entry but must not touch ent/err/done again.
	settled bool
}

// replayCache is a bounded LRU of memoized replay results with single-flight
// dedup of concurrent identical requests. Safe for concurrent use.
type replayCache struct {
	mu       sync.Mutex
	max      int
	entries  map[rawKey]*list.Element
	lru      *list.List // front = most recently used
	inflight map[rawKey]*inflightReplay

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// lruItem is the LRU list payload.
type lruItem struct {
	key rawKey
	ent *replayEntry
}

// newReplayCache builds a cache bounded to max entries and registers its
// counters on reg.
func newReplayCache(max int, reg *obs.Registry) *replayCache {
	c := &replayCache{
		max:      max,
		entries:  make(map[rawKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[rawKey]*inflightReplay),
	}
	reg.CounterFunc("pg_cache_hits_total",
		"replay requests served from the content-hash cache (including single-flight waiters)",
		c.hits.Load)
	reg.CounterFunc("pg_cache_misses_total",
		"replay requests that simulated because no cache entry existed",
		c.misses.Load)
	reg.CounterFunc("pg_cache_evictions_total",
		"cache entries evicted by the LRU bound",
		c.evictions.Load)
	reg.GaugeFunc("pg_cache_entries",
		"live entries in the content-hash replay cache",
		func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(len(c.entries))
		})
	return c
}

// lookup returns the entry cached under key, counting a hit, or nil. It
// opens no flight, so a request can look up before it parses and a trace
// that fails to parse leaves the cache as it found it.
func (c *replayCache) lookup(key rawKey) *replayEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*lruItem).ent
}

// begin resolves a key against the cache. Exactly one of the returns is
// taken:
//
//   - ent != nil: cache hit, serve it.
//   - call != nil, leader false: another request is simulating this key; wait
//     on call.done then read call.ent/call.err.
//   - call != nil, leader true: the caller must simulate and finish with
//     complete(key, ent, err).
func (c *replayCache) begin(key rawKey) (ent *replayEntry, call *inflightReplay, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*lruItem).ent, nil, false
	}
	if f, ok := c.inflight[key]; ok {
		c.hits.Add(1)
		return nil, f, false
	}
	f := &inflightReplay{done: make(chan struct{})}
	c.inflight[key] = f
	c.misses.Add(1)
	return nil, f, true
}

// complete finishes the flight f: stores the entry on success (err == nil)
// and wakes every waiter. Calling it twice for one flight is safe — the
// handler may release waiters with a timeout error while the abandoned
// worker goroutine later completes with the real result, which still caches.
//
// f scopes the completion to the flight the caller owns: only the flight
// still registered under key is deregistered, so a late completion of an
// abandoned flight can never deregister — or worse, close with a stale
// error — a successor flight that a newer leader opened for the same key
// after the first one was released. A failed miss therefore leaves neither a
// poisoned successor flight nor any cache entry behind, and the eviction
// loop runs only when an entry is actually inserted, so
// pg_cache_evictions_total counts real LRU evictions exactly once each.
func (c *replayCache) complete(key rawKey, f *inflightReplay, ent *replayEntry, err error) {
	c.mu.Lock()
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if err == nil && ent != nil {
		if _, exists := c.entries[key]; !exists {
			c.entries[key] = c.lru.PushFront(&lruItem{key: key, ent: ent})
			for c.lru.Len() > c.max {
				last := c.lru.Remove(c.lru.Back()).(*lruItem)
				delete(c.entries, last.key)
				c.evictions.Add(1)
			}
		}
	}
	settle := !f.settled
	f.settled = true
	if settle {
		f.ent, f.err = ent, err
	}
	c.mu.Unlock()
	if settle {
		close(f.done)
	}
}
