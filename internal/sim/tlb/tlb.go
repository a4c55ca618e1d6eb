// Package tlb simulates a set-associative translation lookaside buffer.
//
// TLB pressure is one of the two overhead sources the paper identifies for
// the shadow-page scheme ("since each allocation has a new virtual page, our
// approach has more TLB misses than the original program", §1) and the
// subject of its proposed architectural mitigation. As on hardware, the TLB
// is also where translations are cached: an entry holds the frame and
// protection of its page once the MMU has filled it, and the kernel's
// shootdowns (FlushRange, FlushAll) are what keep it coherent with the
// address space. Hits and misses, and so every simulated cycle, depend only
// on the sequence of pages accessed and flushed, never on whether an entry
// holds a translation.
package tlb

import (
	"sync"

	"repro/internal/sim/phys"
	"repro/internal/sim/vm"
)

// Config describes TLB geometry.
type Config struct {
	// Entries is the total entry count. Must be a multiple of Ways.
	Entries int
	// Ways is the associativity.
	Ways int
}

// DefaultConfig approximates a 2006-era data TLB (64 entries, 4-way), the
// class of hardware the paper measured on.
func DefaultConfig() Config {
	return Config{Entries: 64, Ways: 4}
}

// invalidVPN marks an empty entry. VPNs are bounded far below 2^64, so no
// real translation can match it and the hit scan needs no valid bit. The
// victim scan tests for it explicitly, and flushes preserve the entry's
// stale lru, so replacement picks exactly the entry the valid-bit
// representation picked.
const invalidVPN = vm.VPN(^uint64(0))

// Entry is one TLB entry. Access returns it so the MMU can read or fill the
// translation it caches; the pointer is good until the next Access, flush
// or Release.
type Entry struct {
	vpn vm.VPN
	// lru is a per-set sequence number; higher is more recent. A flushed
	// entry keeps its stale value (see invalidVPN).
	lru uint64
	// frame and prot are the cached translation when mapped is set. A miss
	// fills the entry with none; the MMU fills it after a successful walk.
	frame  phys.FrameID
	prot   vm.Prot
	mapped bool
}

// Translation returns the frame and protection e caches, if it holds one.
func (e *Entry) Translation() (phys.FrameID, vm.Prot, bool) {
	return e.frame, e.prot, e.mapped
}

// Fill makes e cache the translation of its page to frame with prot.
func (e *Entry) Fill(frame phys.FrameID, prot vm.Prot) {
	e.frame, e.prot, e.mapped = frame, prot, true
}

// TLB is a set-associative TLB with LRU replacement. Not safe for concurrent
// use. Entries are stored flat (set i occupies entries[i*ways:(i+1)*ways])
// and the set index is a mask when the set count is a power of two — this
// lookup runs twice per simulated memory access, so the pointer chase and
// 64-bit modulo of the obvious representation are measurable.
type TLB struct {
	entries []Entry
	// box holds entries for the pool Release hands it to.
	box     *[]Entry
	ways    int
	nsets   uint64
	setMask uint64 // nsets-1 when nsets is a power of two, else 0
	clock   uint64
	hits    uint64
	misses  uint64

	// One-entry MRU memo: when an access repeats the immediately previous
	// VPN, its entry is necessarily still resident (it was stamped
	// most-recent and nothing else has touched the TLB since), so the hit
	// can skip the set scan. Any flush resets the memo, since flushes
	// invalidate entries without going through Access.
	lastVPN   vm.VPN
	lastEntry *Entry
}

// New returns a TLB with the given geometry. A zero or invalid config falls
// back to DefaultConfig.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		cfg = DefaultConfig()
	}
	nsets := cfg.Entries / cfg.Ways
	t := &TLB{
		box:   takeEntries(cfg.Entries),
		ways:  cfg.Ways,
		nsets: uint64(nsets),
	}
	t.entries = *t.box
	t.lastVPN = invalidVPN
	if n := uint64(nsets); n&(n-1) == 0 {
		t.setMask = n - 1
	}
	return t
}

// entryPools recycles released TLBs' entry arrays, one sync.Pool per entry
// count.
var entryPools sync.Map // int -> *sync.Pool

// takeEntries returns an array of n entries, all invalid with lru 0, taken
// from the pool when it holds one.
func takeEntries(n int) *[]Entry {
	p, ok := entryPools.Load(n)
	if !ok {
		p, _ = entryPools.LoadOrStore(n, new(sync.Pool))
	}
	box, ok := p.(*sync.Pool).Get().(*[]Entry)
	if !ok {
		box = new([]Entry)
		*box = make([]Entry, n)
	}
	for i := range *box {
		(*box)[i] = Entry{vpn: invalidVPN}
	}
	return box
}

// Release hands the entry array to the pool the next TLB of its size takes
// it from. The TLB must not be used afterwards; its counters stay readable.
func (t *TLB) Release() {
	if t.box == nil {
		return
	}
	p, _ := entryPools.Load(len(*t.box))
	p.(*sync.Pool).Put(t.box)
	t.box, t.entries, t.lastEntry = nil, nil, nil
}

// set returns the entry slice of vpn's set.
func (t *TLB) set(vpn vm.VPN) []Entry {
	var idx uint64
	if t.setMask != 0 {
		idx = uint64(vpn) & t.setMask
	} else {
		idx = uint64(vpn) % t.nsets
	}
	return t.entries[int(idx)*t.ways : (int(idx)+1)*t.ways]
}

// Access looks up vpn and returns its entry and whether it hit. On a miss
// the set's LRU entry is evicted and refilled with vpn and no translation.
func (t *TLB) Access(vpn vm.VPN) (*Entry, bool) {
	t.clock++
	if vpn == t.lastVPN {
		t.lastEntry.lru = t.clock
		t.hits++
		return t.lastEntry, true
	}
	set := t.set(vpn)
	for i := range set {
		if set[i].vpn == vpn {
			set[i].lru = t.clock
			t.hits++
			t.lastVPN, t.lastEntry = vpn, &set[i]
			return &set[i], true
		}
	}
	t.misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].vpn == invalidVPN {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = Entry{vpn: vpn, lru: t.clock}
	t.lastVPN, t.lastEntry = vpn, &set[victim]
	return &set[victim], false
}

// FlushPage invalidates any entry for vpn (the shootdown performed by
// mprotect/munmap on that page).
func (t *TLB) FlushPage(vpn vm.VPN) {
	set := t.set(vpn)
	for i := range set {
		if set[i].vpn == vpn {
			// Keep the stale lru: victim selection compares it when no
			// empty slot is found past index 0, and replacement must pick
			// the same entry the valid-bit representation picked.
			set[i].vpn = invalidVPN
		}
	}
	t.lastVPN, t.lastEntry = invalidVPN, nil
}

// FlushRange invalidates any entry for the n pages from vpn: the shootdown
// of one range syscall, equal to FlushPage on each page. Consecutive pages
// fall in consecutive sets, so the sets to scan are one run of the entry
// array (wrapping at its end); a range of at least as many pages as the TLB
// has sets scans the array once. Like FlushPage it keeps every entry's lru.
func (t *TLB) FlushRange(vpn vm.VPN, n uint64) {
	lo, hi := 0, len(t.entries)
	if n < t.nsets {
		first := int(uint64(vpn) % t.nsets)
		lo, hi = first*t.ways, (first+int(n))*t.ways
	}
	flushIn(t.entries[lo:min(hi, len(t.entries))], vpn, n)
	if hi > len(t.entries) {
		flushIn(t.entries[:hi-len(t.entries)], vpn, n)
	}
	t.lastVPN, t.lastEntry = invalidVPN, nil
}

// flushIn invalidates the entries of es that hold a page in the n pages from
// vpn. e-vpn < n holds exactly for vpn <= e < vpn+n, without computing
// vpn+n.
func flushIn(es []Entry, vpn vm.VPN, n uint64) {
	for i := range es {
		if uint64(es[i].vpn-vpn) < n {
			es[i].vpn = invalidVPN
		}
	}
}

// Translations calls fn for every valid entry that holds a translation, in
// entry order. It is how tests hold the TLB to the address space it caches.
func (t *TLB) Translations(fn func(vpn vm.VPN, frame phys.FrameID, prot vm.Prot)) {
	for i := range t.entries {
		if e := &t.entries[i]; e.vpn != invalidVPN && e.mapped {
			fn(e.vpn, e.frame, e.prot)
		}
	}
}

// FlushAll invalidates every entry (full context-switch flush).
func (t *TLB) FlushAll() {
	for i := range t.entries {
		t.entries[i].vpn = invalidVPN
	}
	t.lastVPN, t.lastEntry = invalidVPN, nil
}

// Hits returns the hit count.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the miss count.
func (t *TLB) Misses() uint64 { return t.misses }

// MissRate returns misses / accesses, or 0 for no accesses.
func (t *TLB) MissRate() float64 {
	total := t.hits + t.misses
	if total == 0 {
		return 0
	}
	return float64(t.misses) / float64(total)
}
