package core

import (
	"errors"
	"sort"
	"testing"
)

// TestGCScansTailWordOfOddSizedObjects is the tail-word regression test: a
// conservative collector must over-approximate roots, so a dangling pointer
// copy held in the final partial word of an odd-sized object (here the last
// 4 bytes of a 12-byte holder) must keep the freed object's shadow run
// protected. The pre-fix scanRange only visited words with all 8 bytes
// inside the range and therefore dropped the tail, recycling a
// still-referenced run — a missed-detection bug.
func TestGCScansTailWordOfOddSizedObjects(t *testing.T) {
	f := newFixture(t, Config{Policy: ReusePolicy{Kind: PolicyGC, Interval: 1 << 30}})

	// holder's size is deliberately not a multiple of 8: bytes 8..12 form
	// the partial tail word.
	holder := f.alloc(t, 12)
	victim := f.alloc(t, 16)
	if victim >= 1<<32 {
		t.Fatalf("victim shadow address %#x does not fit the 4-byte slot", victim)
	}
	// The only copy of the pointer lives in the last 4 bytes of holder.
	if err := f.proc.MMU().WriteWord(holder+8, 4, victim); err != nil {
		t.Fatalf("store pointer into tail word: %v", err)
	}
	f.free(t, victim)

	if recycled := f.rm.CollectGarbage(); recycled != 0 {
		t.Fatalf("collector recycled %d pages of a still-referenced object", recycled)
	}
	var de *DanglingError
	if err := f.read(victim); !errors.As(err, &de) {
		t.Fatalf("tail-word-referenced dangler no longer traps after GC: %v", err)
	}

	// Clear the tail slot: the victim becomes garbage and must now be
	// reclaimed (the fix must not just suppress recycling wholesale).
	if err := f.proc.MMU().WriteWord(holder+8, 4, 0); err != nil {
		t.Fatalf("clear tail word: %v", err)
	}
	if recycled := f.rm.CollectGarbage(); recycled == 0 {
		t.Fatal("unreferenced dangler not reclaimed after tail root cleared")
	}
}

// TestGCScanDoesNotReadBelowRangeStart pins the other half of the scanRange
// fix: a pointer sitting just below an object's start (in memory the object
// does not own) must not act as a root for that object's scan.
func TestGCScanDoesNotReadBelowRangeStart(t *testing.T) {
	f := newFixture(t, Config{Policy: ReusePolicy{Kind: PolicyGC, Interval: 1 << 30}})

	victim := f.alloc(t, 16)
	f.free(t, victim)

	// The remap header word sits immediately below every object's shadow
	// address. It holds the canonical address, never a shadow pointer, so a
	// correctly clamped scan of [ShadowAddr, ShadowAddr+size) can never
	// mark anything through it; this just documents that scanning an
	// unrelated live object does not resurrect the victim.
	_ = f.alloc(t, 24)
	if recycled := f.rm.CollectGarbage(); recycled == 0 {
		t.Fatal("collector kept an unreferenced freed object alive")
	}
}

// TestLiveNoPoolObjectsSorted: liveNoPoolObjects feeds the root scan (and
// any future diagnostics), so its order must be deterministic — sorted by
// ShadowAddr, matching the livePools/freedPoolsSorted treatment.
func TestLiveNoPoolObjectsSorted(t *testing.T) {
	f := newFixture(t, Config{})
	for i := 0; i < 32; i++ {
		f.alloc(t, 16)
	}
	for run := 0; run < 4; run++ {
		objs := f.rm.liveNoPoolObjects()
		if len(objs) != 32 {
			t.Fatalf("live objects = %d, want 32", len(objs))
		}
		if !sort.SliceIsSorted(objs, func(i, j int) bool {
			return objs[i].ShadowAddr < objs[j].ShadowAddr
		}) {
			t.Fatalf("liveNoPoolObjects not sorted by ShadowAddr on run %d", run)
		}
	}
}
