package tlb

import (
	"testing"

	"repro/internal/sim/phys"
	"repro/internal/sim/vm"
)

// hit accesses v and reports whether it hit.
func hit(t *TLB, v vm.VPN) bool {
	_, ok := t.Access(v)
	return ok
}

func TestHitAfterMiss(t *testing.T) {
	tl := New(Config{Entries: 8, Ways: 2})
	if hit(tl, 5) {
		t.Fatal("first access should miss")
	}
	if !hit(tl, 5) {
		t.Fatal("second access should hit")
	}
	if tl.Hits() != 1 || tl.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", tl.Hits(), tl.Misses())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 sets x 2 ways. VPNs 0,2,4 all land in set 0.
	tl := New(Config{Entries: 4, Ways: 2})
	tl.Access(0)
	tl.Access(2)
	tl.Access(0) // make 2 the LRU
	tl.Access(4) // evicts 2
	if !hit(tl, 0) {
		t.Fatal("0 should still be resident")
	}
	if hit(tl, 2) {
		t.Fatal("2 should have been evicted")
	}
}

func TestFlushPage(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Access(7)
	tl.FlushPage(7)
	if hit(tl, 7) {
		t.Fatal("access after flush should miss")
	}
}

func TestFlushAll(t *testing.T) {
	tl := New(DefaultConfig())
	for v := vm.VPN(0); v < 10; v++ {
		tl.Access(v)
	}
	tl.FlushAll()
	for v := vm.VPN(0); v < 10; v++ {
		if hit(tl, v) {
			t.Fatalf("vpn %d hit after FlushAll", v)
		}
	}
}

func TestMissRate(t *testing.T) {
	tl := New(DefaultConfig())
	if tl.MissRate() != 0 {
		t.Fatal("empty TLB should report 0 miss rate")
	}
	tl.Access(1) // miss
	tl.Access(1) // hit
	tl.Access(1) // hit
	tl.Access(2) // miss
	if got := tl.MissRate(); got != 0.5 {
		t.Fatalf("MissRate = %v, want 0.5", got)
	}
}

func TestInvalidConfigFallsBack(t *testing.T) {
	tl := New(Config{Entries: 7, Ways: 3}) // not divisible
	// Should behave like a default TLB, not panic.
	tl.Access(1)
	if !hit(tl, 1) {
		t.Fatal("fallback TLB broken")
	}
}

func TestWorkingSetLargerThanTLBThrashes(t *testing.T) {
	// The effect the paper attributes enscript's residual overhead to:
	// when every object lives on its own page, the page working set
	// exceeds TLB reach and the miss rate climbs.
	cfg := Config{Entries: 16, Ways: 4}

	small := New(cfg)
	for round := 0; round < 100; round++ {
		for v := vm.VPN(0); v < 8; v++ { // fits in 16 entries
			small.Access(v)
		}
	}
	large := New(cfg)
	for round := 0; round < 100; round++ {
		for v := vm.VPN(0); v < 64; v++ { // 4x TLB capacity
			large.Access(v)
		}
	}
	if small.MissRate() >= 0.1 {
		t.Fatalf("small working set should mostly hit, miss rate %v", small.MissRate())
	}
	if large.MissRate() <= 0.9 {
		t.Fatalf("oversized working set should mostly miss, miss rate %v", large.MissRate())
	}
}

// TestFlushRangeMatchesFlushPage drives pairs of identical TLBs into random
// states, flushes one with FlushRange and the other with FlushPage on every
// page of the range, and requires identical state afterwards, every entry's
// lru and the MRU memo included, and identical hit and miss sequences after.
// Ranges run from one page to more than the TLB has sets, so both of
// FlushRange's paths are taken, and some reach past the end of the space.
func TestFlushRangeMatchesFlushPage(t *testing.T) {
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for _, cfg := range []Config{{Entries: 64, Ways: 4}, {Entries: 512, Ways: 4}, {Entries: 24, Ways: 2}} {
		for round := 0; round < 200; round++ {
			a, b := New(cfg), New(cfg)
			for i := 0; i < 400; i++ {
				v := vm.VPN(next() % 300)
				a.Access(v)
				b.Access(v)
			}
			lo := vm.VPN(next() % 300)
			n := 1 + next()%300
			if round%10 == 0 {
				lo, n = vm.VPN(^uint64(0)-5), 5 // a range at the very top
			}
			a.FlushRange(lo, n)
			for i := uint64(0); i < n; i++ {
				b.FlushPage(lo + vm.VPN(i))
			}
			for i := range a.entries {
				if a.entries[i] != b.entries[i] {
					t.Fatalf("%+v round %d: flush %#x/%d: entry %d = %+v, per-page %+v", cfg, round, lo, n, i, a.entries[i], b.entries[i])
				}
			}
			if a.lastVPN != b.lastVPN || (a.lastEntry == nil) != (b.lastEntry == nil) {
				t.Fatalf("%+v round %d: memo %#x, per-page %#x", cfg, round, a.lastVPN, b.lastVPN)
			}
			for i := 0; i < 100; i++ {
				v := vm.VPN(next() % 300)
				if hit(a, v) != hit(b, v) {
					t.Fatalf("%+v round %d: access %d of %#x differs after the flush", cfg, round, i, v)
				}
			}
			a.Release()
			b.Release()
		}
	}
}

// TestPooledEntriesComeBackReset fills TLBs, releases them, and requires a
// TLB built next from the pool to behave as a fresh one: every access of the
// same sequence hits or misses alike.
func TestPooledEntriesComeBackReset(t *testing.T) {
	for round := 0; round < 4; round++ {
		old := New(DefaultConfig())
		for v := vm.VPN(0); v < 200; v++ {
			old.Access(v)
		}
		old.Release()
		reused := New(DefaultConfig())
		fresh := &TLB{entries: make([]Entry, 64), ways: 4, nsets: 16, setMask: 15, lastVPN: invalidVPN}
		for i := range fresh.entries {
			fresh.entries[i].vpn = invalidVPN
		}
		for i := 0; i < 300; i++ {
			v := vm.VPN(i * 7 % 211)
			if hit(reused, v) != hit(fresh, v) {
				t.Fatalf("round %d: access %d of %#x: a reused TLB disagrees with a fresh one", round, i, v)
			}
		}
		reused.Release()
	}
}

// TestEntriesCarryTranslations checks the translation an entry caches: a
// miss fills the entry with none, a filled entry hands its translation to
// every later hit, and a flush or an eviction drops it.
func TestEntriesCarryTranslations(t *testing.T) {
	tl := New(Config{Entries: 4, Ways: 2}) // VPNs 0, 2, 4 share set 0
	e, ok := tl.Access(0)
	if _, _, mapped := e.Translation(); ok || mapped {
		t.Fatalf("first access: hit %v, translation %v; want a miss with none", ok, mapped)
	}
	e.Fill(7, vm.ProtRead)
	if e, ok := tl.Access(0); !ok {
		t.Fatal("second access missed")
	} else if f, p, mapped := e.Translation(); f != 7 || p != vm.ProtRead || !mapped {
		t.Fatalf("hit translation = %v %v %v, want 7 r- true", f, p, mapped)
	}
	var seen []vm.VPN
	tl.Translations(func(v vm.VPN, f phys.FrameID, p vm.Prot) { seen = append(seen, v) })
	if len(seen) != 1 || seen[0] != 0 {
		t.Fatalf("Translations visited %v, want [0]", seen)
	}
	tl.FlushPage(0)
	if e, _ := tl.Access(0); hasTranslation(e) {
		t.Fatal("a flushed entry came back with its translation")
	}
	e, _ = tl.Access(0)
	e.Fill(7, vm.ProtRW)
	tl.Access(2)
	tl.Access(4) // evicts 0, the LRU entry of set 0
	if e, ok := tl.Access(0); ok || hasTranslation(e) {
		t.Fatalf("evicted entry: hit %v, translation %v; want a miss with none", ok, hasTranslation(e))
	}
}

func hasTranslation(e *Entry) bool {
	_, _, ok := e.Translation()
	return ok
}
