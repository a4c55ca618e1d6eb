package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/pageguard"
	"repro/trace"
)

// replayKey is the content hash that identifies one replay result: the
// SHA-256 of the canonical trace rendering (File.Format — every
// semantics-affecting directive included: faults, policy, VA budget, guards,
// after query-parameter overrides were applied) plus the spans flag. Two
// requests with the same key are guaranteed the same response bytes by the
// replayer's determinism, which is what makes memoizing them sound.
type replayKey [sha256.Size]byte

func keyForReplay(tf *trace.File, spans bool) replayKey {
	var b bytes.Buffer
	if spans {
		b.WriteString("!spans\n") // not a trace directive; just a key discriminator
	}
	tf.Format(&b)
	return sha256.Sum256(b.Bytes())
}

// replayEntry is one memoized replay result: the full response body plus the
// per-process metrics snapshot that must merge into the fleet aggregate on
// every serve (hit or miss), the detections' TrapReports for the crash-bucket
// database (cached serves still represent served requests and must count),
// and the span/cycle summary for /debug/spans.
type replayEntry struct {
	body    []byte
	metrics obs.Snapshot
	reports []*pageguard.TrapReport
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
	entries  map[replayKey]*list.Element
	lru      *list.List // front = most recently used
	inflight map[replayKey]*inflightReplay

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// lruItem is the LRU list payload.
type lruItem struct {
	key replayKey
	ent *replayEntry
}

// newReplayCache builds a cache bounded to max entries and registers its
// counters on reg.
func newReplayCache(max int, reg *obs.Registry) *replayCache {
	c := &replayCache{
		max:      max,
		entries:  make(map[replayKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[replayKey]*inflightReplay),
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

// begin resolves a key against the cache. Exactly one of the returns is
// taken:
//
//   - ent != nil: cache hit, serve it.
//   - call != nil, leader false: another request is simulating this key; wait
//     on call.done then read call.ent/call.err.
//   - call != nil, leader true: the caller must simulate and finish with
//     complete(key, ent, err).
func (c *replayCache) begin(key replayKey) (ent *replayEntry, call *inflightReplay, leader bool) {
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
// and wakes every waiter. On a nil cache (caching disabled) it does
// nothing. Calling it twice for one flight is safe — the
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
func (c *replayCache) complete(key replayKey, f *inflightReplay, ent *replayEntry, err error) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.inflight[key] == f {
		delete(c.inflight, key)
	}
	if err == nil && ent != nil {
		if _, exists := c.entries[key]; !exists {
			c.entries[key] = c.lru.PushFront(&lruItem{key: key, ent: ent})
			for c.lru.Len() > c.max {
				last := c.lru.Back()
				c.lru.Remove(last)
				delete(c.entries, last.Value.(*lruItem).key)
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
