package serve

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/trace"
)

func testKey(src string) rawKey { return rawKeyFor([]byte(src), overrides{}) }

// bodyOf is a one-segment body of s.
func bodyOf(s string) trace.Body {
	var b trace.Body
	b.Write([]byte(s))
	return b
}

// TestCacheFailedMissLeavesNoResidue is the regression test for the
// single-flight error path: a miss whose loader fails must propagate the
// error to waiting duplicates and leave the cache completely clean — no
// pinned inflight record, no poisoned LRU entry, no phantom eviction — so
// the next request for the key simulates afresh.
func TestCacheFailedMissLeavesNoResidue(t *testing.T) {
	c := newReplayCache(4, obs.NewRegistry())
	key := testKey("a 1 64\nf 1\n")

	ent, leaderFlight, leader := c.begin(key)
	if ent != nil || !leader {
		t.Fatalf("first begin: ent=%v leader=%v, want miss+leader", ent, leader)
	}
	_, waiterFlight, waiterLeads := c.begin(key)
	if waiterLeads || waiterFlight != leaderFlight {
		t.Fatalf("duplicate begin did not join the leader's flight")
	}

	boom := errors.New("loader failed")
	done := make(chan error, 1)
	go func() {
		<-waiterFlight.done
		done <- waiterFlight.err
	}()
	c.complete(key, leaderFlight, nil, boom)
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want the loader error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never released after the failed miss")
	}

	c.mu.Lock()
	entries, inflight := len(c.entries), len(c.inflight)
	c.mu.Unlock()
	if entries != 0 {
		t.Errorf("failed miss left %d poisoned cache entries", entries)
	}
	if inflight != 0 {
		t.Errorf("failed miss left %d pinned inflight flights", inflight)
	}
	if got := c.evictions.Load(); got != 0 {
		t.Errorf("failed miss counted %d evictions", got)
	}

	// The key must be retryable: the next request is a fresh leader, and its
	// success caches normally.
	_, retryFlight, retryLeads := c.begin(key)
	if !retryLeads {
		t.Fatal("key not retryable after failed miss")
	}
	c.complete(key, retryFlight, &replayEntry{body: bodyOf("ok\n")}, nil)
	hit, _, _ := c.begin(key)
	if hit == nil || string(hit.body.AppendTo(nil)) != "ok\n" {
		t.Fatalf("retry result did not cache: %v", hit)
	}
}

// TestCacheLateCompletionDoesNotClobberSuccessor: a leader whose handler
// timed out releases its waiters early; when the abandoned worker later
// finishes, its completion must store the result but must NOT deregister or
// close a successor flight a newer leader opened for the same key in the
// meantime (the pre-fix code deleted inflight[key] unconditionally, poisoning
// the successor's waiters with a stale outcome).
func TestCacheLateCompletionDoesNotClobberSuccessor(t *testing.T) {
	c := newReplayCache(4, obs.NewRegistry())
	key := testKey("a 1 64\nf 1\n")

	_, f1, _ := c.begin(key)
	// Handler timeout: release f1's waiters with an error.
	c.complete(key, f1, nil, errors.New("deadline exceeded"))

	// A new request opens a successor flight before the abandoned worker
	// finishes.
	_, f2, leads := c.begin(key)
	if !leads || f2 == f1 {
		t.Fatalf("successor flight not opened: leads=%v same=%v", leads, f2 == f1)
	}

	// The abandoned worker finishes: the entry caches, f2 is untouched.
	late := &replayEntry{body: bodyOf("late\n")}
	c.complete(key, f1, late, nil)
	select {
	case <-f2.done:
		t.Fatal("late completion of the abandoned flight closed the successor flight")
	default:
	}
	c.mu.Lock()
	still := c.inflight[key] == f2
	_, cached := c.entries[key]
	c.mu.Unlock()
	if !still {
		t.Error("late completion deregistered the successor flight")
	}
	if !cached {
		t.Error("late completion's finished result did not cache")
	}

	// The successor leader completes normally and its waiters see ITS result.
	c.complete(key, f2, &replayEntry{body: bodyOf("fresh\n")}, nil)
	select {
	case <-f2.done:
	case <-time.After(5 * time.Second):
		t.Fatal("successor flight never settled")
	}
	if f2.err != nil || string(f2.ent.body.AppendTo(nil)) != "fresh\n" {
		t.Fatalf("successor outcome clobbered: ent=%v err=%v", f2.ent, f2.err)
	}
}

// TestCacheEvictionsCountExactlyOnce: the eviction counter moves only when
// the LRU bound actually evicts, and double completions of one flight cannot
// double-store or double-count.
func TestCacheEvictionsCountExactlyOnce(t *testing.T) {
	c := newReplayCache(1, obs.NewRegistry())
	k1 := testKey("a 1 64\nf 1\n")
	k2 := testKey("a 2 64\nf 2\n")

	_, f1, _ := c.begin(k1)
	c.complete(k1, f1, &replayEntry{body: bodyOf("1")}, nil)
	// Double completion of the same flight: must not double-store.
	c.complete(k1, f1, &replayEntry{body: bodyOf("1dup")}, nil)
	if got := c.evictions.Load(); got != 0 {
		t.Fatalf("evictions = %d before the bound was ever exceeded", got)
	}

	_, f2, _ := c.begin(k2)
	c.complete(k2, f2, &replayEntry{body: bodyOf("2")}, nil)
	if got := c.evictions.Load(); got != 1 {
		t.Fatalf("evictions = %d after one LRU eviction, want 1", got)
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("cache holds %d entries with max 1", n)
	}
}
