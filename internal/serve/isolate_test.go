package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRunIsolatedContainsPanic: a panicking fn comes back as a *panicError
// and frees its worker slot, so with a single worker the next call still
// runs; the error maps to a 500 "internal" body.
func TestRunIsolatedContainsPanic(t *testing.T) {
	s := New(Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	_, err := s.runIsolated(ctx, func() (any, error) { panic("boom") })
	var pe *panicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking fn returned %v, want a *panicError", err)
	}
	v, err := s.runIsolated(ctx, func() (any, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("next call on the single worker = %v, %v; want 42, nil", v, err)
	}

	rec := httptest.NewRecorder()
	s.runError(rec, ctx, pe, "replay")
	resp := rec.Result()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if eb := decodeError(t, resp, rec.Body.Bytes()); eb.Code != ErrCodeInternal {
		t.Fatalf("code = %q, want %q", eb.Code, ErrCodeInternal)
	}
}

// TestPanickingLeaderReleasesWaiters: when the single-flight leader's render
// panics, a waiter on the same key gets the panic error instead of blocking
// until its own timeout, and the key stays retryable.
func TestPanickingLeaderReleasesWaiters(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 4})
	key := testKey("a 1 64\nf 1\n")
	_, call, leader := s.cache.begin(key)
	if !leader {
		t.Fatal("first begin did not lead")
	}
	_, waitCall, waiterLeads := s.cache.begin(key)
	if waiterLeads || waitCall != call {
		t.Fatal("duplicate begin did not join the leader's flight")
	}
	waited := make(chan error, 1)
	go func() {
		select {
		case <-waitCall.done:
			waited <- waitCall.err
		case <-time.After(5 * time.Second):
			waited <- errors.New("waiter blocked")
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := s.lead(ctx, key, call, func() (*replayEntry, error) { panic("boom") })
	var pe *panicError
	if !errors.As(err, &pe) {
		t.Fatalf("leader got %v, want a *panicError", err)
	}
	if werr := <-waited; !errors.As(werr, &pe) {
		t.Fatalf("waiter got %v, want the leader's panic error", werr)
	}
	if _, _, retry := s.cache.begin(key); !retry {
		t.Fatal("key not retryable after the panicking miss")
	}
}
