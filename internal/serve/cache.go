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

// replayKey is the content hash that identifies one replay result: the
// SHA-256 of the spans flag, every event's source line, and the canonical
// trace rendering (File.Format — every semantics-affecting directive
// included: faults, policy, VA budget, guards, after query-parameter
// overrides were applied). Two requests with the same key are guaranteed the
// same response bytes by the replayer's determinism, which is what makes
// memoizing them sound. The lines are part of the key because the body names
// them (a detection's sites are "trace:<line>") while Format drops them: a
// comment that moves the events down a line changes the response.
type replayKey [sha256.Size]byte

func keyForReplay(tf *trace.File, spans bool) replayKey {
	h := sha256.New()
	// The flag and the length-prefixed line list come first, so the
	// canonical text that follows cannot be mistaken for either.
	var buf [512]byte
	b := append(buf[:0], flag(spans))
	b = binary.AppendUvarint(b, uint64(len(tf.Events)))
	for _, ev := range tf.Events {
		if len(b) > len(buf)-binary.MaxVarintLen64 {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.AppendUvarint(b, uint64(ev.Line))
	}
	h.Write(b)
	tf.Format(h)
	var k replayKey
	h.Sum(k[:0])
	return k
}

// rawKey identifies one request as it arrived: the SHA-256 of the body
// bytes and every response-changing query parameter, each length-prefixed.
// trace.ParseFile is deterministic and the overrides are applied to its
// result, so one rawKey always yields one replayKey; the raw index relies on
// that to serve a repeat without parsing.
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

// maxAliases bounds the raw keys one cache entry answers to. Comment or
// whitespace variants of one trace share a canonical entry; without the
// bound a client sending endless variants would grow the raw index without
// limit. Past it the oldest alias is dropped and its next request parses.
const maxAliases = 4

// replayEntry is one memoized replay result: only what serving it again
// needs. That is the full response body, the per-process metrics snapshot
// that merges into the fleet aggregate on every serve (hit or miss), one
// crash-bucket key per detection (cached serves still represent served
// requests and must count; the miss that rendered the entry registered the
// representatives), and the span/cycle summary for /debug/spans. It keeps no
// TrapReport: each carries its own copy of the flight ring, about as large
// as the body that renders it.
type replayEntry struct {
	body    []byte
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
// dedup of concurrent identical requests, fronted by an index of raw request
// hashes. Safe for concurrent use.
type replayCache struct {
	mu      sync.Mutex
	max     int
	entries map[replayKey]*list.Element
	// raw maps a request's rawKey to the entry its canonical key names. It
	// holds hashes only, at most maxAliases per live entry, and an entry's
	// aliases leave with it on eviction.
	raw      map[rawKey]*list.Element
	lru      *list.List // front = most recently used
	inflight map[replayKey]*inflightReplay

	hits      atomic.Uint64
	rawHits   atomic.Uint64 // the hits answered from raw, a subset of hits
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// lruItem is the LRU list payload.
type lruItem struct {
	key replayKey
	ent *replayEntry
	// aliases are the raw keys in raw that point here, oldest first.
	aliases []rawKey
}

// newReplayCache builds a cache bounded to max entries and registers its
// counters on reg.
func newReplayCache(max int, reg *obs.Registry) *replayCache {
	c := &replayCache{
		max:      max,
		entries:  make(map[replayKey]*list.Element),
		raw:      make(map[rawKey]*list.Element),
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

// lookupRaw returns the entry a request's raw key is aliased to, counting a
// hit, or nil when the key has no alias and the request must parse.
func (c *replayCache) lookupRaw(rk rawKey) *replayEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.raw[rk]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	c.hits.Add(1)
	c.rawHits.Add(1)
	return el.Value.(*lruItem).ent
}

// alias points rk at the live entry for key, so the next request with the
// same raw bytes skips the parse. It does nothing when key has no entry
// (the replay failed, or the entry was already evicted) or rk is already
// aliased; past maxAliases the entry's oldest alias is dropped.
func (c *replayCache) alias(rk rawKey, key replayKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return
	}
	if _, ok := c.raw[rk]; ok {
		return
	}
	it := el.Value.(*lruItem)
	if len(it.aliases) == maxAliases {
		delete(c.raw, it.aliases[0])
		it.aliases = append(it.aliases[:0], it.aliases[1:]...)
	}
	it.aliases = append(it.aliases, rk)
	c.raw[rk] = el
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
func (c *replayCache) complete(key replayKey, f *inflightReplay, ent *replayEntry, err error) {
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
				for _, rk := range last.aliases {
					delete(c.raw, rk)
				}
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
