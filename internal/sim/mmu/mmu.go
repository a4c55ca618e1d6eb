// Package mmu combines the address space, a two-level TLB, and a small
// physically indexed data cache into the memory access path every simulated
// load and store takes. The TLB is the only translation cache: an access
// that finds its page's translation in a TLB entry uses it, and one that
// does not walks the address space's mappings and fills the entry. The
// kernel's shootdowns (FlushRange, FlushAll) after every mapping or
// protection change are what keep the cached translations correct.
//
// The MMU performs the run-time check the paper's scheme relies on ("the
// memory management unit in most modern processors performs a run-time check
// on every memory access", §3.1): a protection violation surfaces as a
// *vm.Fault, which the run-time layers above translate into a dangling
// pointer report.
//
// The TLB hierarchy (a small L1 backed by a larger L2, as on the Xeon the
// paper measured) is where the shadow-page scheme's second overhead source
// shows up: one object per virtual page inflates the page working set. The
// data cache is physically indexed, which is why the scheme preserves cache
// behaviour (multiple objects stay contiguous within one physical page)
// while Electric Fence destroys it (every object on its own physical page).
package mmu

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/sim/cost"
	"repro/internal/sim/phys"
	"repro/internal/sim/tlb"
	"repro/internal/sim/vm"
)

// CacheConfig describes the set-associative physically indexed data cache.
type CacheConfig struct {
	// Lines is the total number of cache lines. Must be a multiple of
	// Ways.
	Lines int
	// LineSize is the line size in bytes (a power of two).
	LineSize int
	// Ways is the associativity. Physical frame assignment varies run to
	// run with allocation history; associativity keeps conflict misses a
	// property of the program rather than of frame-placement luck (a
	// direct-mapped model makes measurements swing by ±15% on layout).
	Ways int
}

// DefaultCacheConfig approximates the Xeon's L1 data cache (32 KB, 64-byte
// lines, 8-way).
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{Lines: 512, LineSize: 64, Ways: 8}
}

// Config describes the MMU's TLB hierarchy and data cache.
type Config struct {
	TLB1  tlb.Config
	TLB2  tlb.Config
	Cache CacheConfig
}

// DefaultConfig approximates the paper's 2006-era Xeon: 64-entry 4-way L1
// TLB, 512-entry 4-way L2 TLB, 32 KB 8-way data cache.
func DefaultConfig() Config {
	return Config{
		TLB1:  tlb.Config{Entries: 64, Ways: 4},
		TLB2:  tlb.Config{Entries: 512, Ways: 4},
		Cache: DefaultCacheConfig(),
	}
}

// invalidTag marks an empty cache line. No real line address can equal it
// (line addresses are bounded far below 2^64), so the hit scan needs no
// separate valid bit. The victim scan tests for it explicitly, preserving the
// valid-bit representation's fill order exactly.
const invalidTag = ^uint64(0)

type cacheLine struct {
	tag uint64
	lru uint64
}

// MMU is the per-process memory access path. Not safe for concurrent use.
type MMU struct {
	space *vm.Space
	mem   *phys.Memory
	tlb1  *tlb.TLB
	tlb2  *tlb.TLB
	meter *cost.Meter

	// lines is the data cache, flattened to one slice of nsets*ways lines;
	// set i occupies lines[i*ways : (i+1)*ways]. setMask is nsets-1 when
	// nsets is a power of two (the index is then a mask instead of a
	// modulo); otherwise setMask is 0 and the modulo path is used.
	lines []cacheLine
	// box holds lines for the pool Release hands it to.
	box        *[]cacheLine
	ways       int
	lineShift  uint
	nsets      uint64
	setMask    uint64
	cacheClock uint64

	// One-entry MRU memo for the data cache: an access repeating the
	// immediately previous line address is necessarily still resident (it
	// was stamped most-recent and nothing has touched the cache since, and
	// the data cache is never flushed), so the hit skips the set scan.
	// Sequential word accesses within one 64-byte line make this the
	// common case.
	lastLine      uint64
	lastLineEntry *cacheLine

	cacheHits   uint64
	cacheMisses uint64
}

// New returns an MMU over the given space and physical memory, charging the
// meter for each access.
func New(space *vm.Space, mem *phys.Memory, meter *cost.Meter, cfg Config) *MMU {
	cc := cfg.Cache
	if cc.Lines <= 0 || cc.LineSize <= 0 || cc.LineSize&(cc.LineSize-1) != 0 ||
		cc.Ways <= 0 || cc.Lines%cc.Ways != 0 {
		cc = DefaultCacheConfig()
	}
	shift := uint(0)
	for 1<<shift < cc.LineSize {
		shift++
	}
	nsets := cc.Lines / cc.Ways
	def := DefaultConfig()
	if cfg.TLB1.Entries == 0 {
		cfg.TLB1 = def.TLB1
	}
	if cfg.TLB2.Entries == 0 {
		cfg.TLB2 = def.TLB2
	}
	m := &MMU{
		space:     space,
		mem:       mem,
		tlb1:      tlb.New(cfg.TLB1),
		tlb2:      tlb.New(cfg.TLB2),
		meter:     meter,
		box:       takeLines(nsets * cc.Ways),
		ways:      cc.Ways,
		lineShift: shift,
		nsets:     uint64(nsets),
	}
	m.lines = *m.box
	m.lastLine = invalidTag
	if n := uint64(nsets); n&(n-1) == 0 {
		m.setMask = n - 1
	}
	return m
}

// linePools recycles released MMUs' cache-line arrays, one sync.Pool per
// line count.
var linePools sync.Map // int -> *sync.Pool

// takeLines returns an array of n cache lines, all invalid with lru 0, taken
// from the pool when it holds one.
func takeLines(n int) *[]cacheLine {
	p, ok := linePools.Load(n)
	if !ok {
		p, _ = linePools.LoadOrStore(n, new(sync.Pool))
	}
	box, ok := p.(*sync.Pool).Get().(*[]cacheLine)
	if !ok {
		box = new([]cacheLine)
		*box = make([]cacheLine, n)
	}
	for i := range *box {
		(*box)[i] = cacheLine{tag: invalidTag}
	}
	return box
}

// Release hands the data cache's lines and both TLBs' entries to the pools
// the next MMU takes them from. The MMU must not be used afterwards; its
// counters stay readable.
func (m *MMU) Release() {
	m.tlb1.Release()
	m.tlb2.Release()
	if m.box == nil {
		return
	}
	p, _ := linePools.Load(len(*m.box))
	p.(*sync.Pool).Put(m.box)
	m.box, m.lines, m.lastLineEntry = nil, nil, nil
}

// Space returns the address space this MMU translates for.
func (m *MMU) Space() *vm.Space { return m.space }

// TLB1 returns the first-level TLB (stats).
func (m *MMU) TLB1() *tlb.TLB { return m.tlb1 }

// TLB2 returns the second-level TLB (stats).
func (m *MMU) TLB2() *tlb.TLB { return m.tlb2 }

// FlushRange invalidates both TLB levels' entries, and with them the
// translations they cache, for the n pages from v: the shootdown of one
// range syscall.
func (m *MMU) FlushRange(v vm.VPN, n uint64) {
	m.tlb1.FlushRange(v, n)
	m.tlb2.FlushRange(v, n)
}

// FlushAll invalidates both TLB levels.
func (m *MMU) FlushAll() {
	m.tlb1.FlushAll()
	m.tlb2.FlushAll()
}

// CacheHits returns the data-cache hit count.
func (m *MMU) CacheHits() uint64 { return m.cacheHits }

// CacheMisses returns the data-cache miss count.
func (m *MMU) CacheMisses() uint64 { return m.cacheMisses }

// cacheAccess simulates a physically indexed set-associative LRU lookup of
// the physical address and returns true on a hit.
func (m *MMU) cacheAccess(paddr uint64) bool {
	m.cacheClock++
	lineAddr := paddr >> m.lineShift
	if lineAddr == m.lastLine {
		m.lastLineEntry.lru = m.cacheClock
		m.cacheHits++
		return true
	}
	var idx uint64
	if m.setMask != 0 {
		idx = lineAddr & m.setMask
	} else {
		idx = lineAddr % m.nsets
	}
	set := m.lines[int(idx)*m.ways : (int(idx)+1)*m.ways]
	for i := range set {
		if set[i].tag == lineAddr {
			set[i].lru = m.cacheClock
			m.cacheHits++
			m.lastLine, m.lastLineEntry = lineAddr, &set[i]
			return true
		}
	}
	m.cacheMisses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].tag == invalidTag {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = cacheLine{tag: lineAddr, lru: m.cacheClock}
	m.lastLine, m.lastLineEntry = lineAddr, &set[victim]
	return false
}

// access translates one page-confined access and charges the meter.
//
// The TLB levels are looked up exactly as for hit/miss accounting alone,
// and L1's entry supplies the translation. An L1 miss that hits L2 copies
// L2's translation into L1. When L1's entry still has none (a miss in both
// levels, or an L2 entry without one), the access walks the address space
// and fills both entries. An L1 hit on an entry a faulting access left
// without a translation walks and fills it alone. A faulting walk fills
// nothing, and no access that faults is charged.
func (m *MMU) access(addr vm.Addr, kind vm.AccessKind) (phys.FrameID, error) {
	vpn := vm.PageOf(addr)
	outcome := cost.TLBHit
	e1, hit := m.tlb1.Access(vpn)
	var e2 *tlb.Entry
	if !hit {
		outcome = cost.TLBMissAll
		if e2, hit = m.tlb2.Access(vpn); hit {
			outcome = cost.TLBL2Hit
		}
		if f, p, ok := e2.Translation(); ok {
			e1.Fill(f, p)
		}
	}
	frame, prot, ok := e1.Translation()
	if !ok {
		frame, prot, ok = m.space.Lookup(vpn)
		if f := vm.CheckAccess(addr, kind, prot, ok); f != nil {
			return 0, f
		}
		e1.Fill(frame, prot)
		if e2 != nil {
			e2.Fill(frame, prot)
		}
	} else if f := vm.CheckAccess(addr, kind, prot, true); f != nil {
		return 0, f
	}
	paddr := uint64(frame)<<vm.PageShift | vm.Offset(addr)
	cacheHit := m.cacheAccess(paddr)
	m.meter.ChargeMem(outcome, !cacheHit)
	return frame, nil
}

// ReadBytes reads len(buf) bytes starting at addr, crossing page boundaries
// as needed. One charge is made per page touched (the MMU checks once per
// page; per-page is the granularity the detection guarantee needs).
func (m *MMU) ReadBytes(addr vm.Addr, buf []byte) error {
	for len(buf) > 0 {
		frame, err := m.access(addr, vm.AccessRead)
		if err != nil {
			return err
		}
		off := vm.Offset(addr)
		n := copy(buf, m.mem.Frame(frame)[off:])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteBytes writes buf starting at addr, crossing page boundaries as needed.
func (m *MMU) WriteBytes(addr vm.Addr, buf []byte) error {
	for len(buf) > 0 {
		frame, err := m.access(addr, vm.AccessWrite)
		if err != nil {
			return err
		}
		off := vm.Offset(addr)
		n := copy(m.mem.FrameForWrite(frame)[off:], buf)
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// ReadWord reads a size-byte little-endian unsigned value (size 1, 2, 4, 8).
// A word contained in one page — the overwhelmingly common case — is decoded
// straight out of the frame, skipping the page-crossing loop and its
// intermediate buffer; the charge is one access either way.
func (m *MMU) ReadWord(addr vm.Addr, size int) (uint64, error) {
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return 0, fmt.Errorf("mmu: bad word size %d", size)
	}
	if off := vm.Offset(addr); off+uint64(size) <= vm.PageSize {
		frame, err := m.access(addr, vm.AccessRead)
		if err != nil {
			return 0, err
		}
		b := m.mem.Frame(frame)[off:]
		switch size {
		case 1:
			return uint64(b[0]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(b)), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(b)), nil
		default:
			return binary.LittleEndian.Uint64(b), nil
		}
	}
	var buf [8]byte
	if err := m.ReadBytes(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// WriteWord writes a size-byte little-endian unsigned value (size 1, 2, 4, 8).
// Like ReadWord, a page-confined word takes a direct store into the frame.
func (m *MMU) WriteWord(addr vm.Addr, size int, val uint64) error {
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return fmt.Errorf("mmu: bad word size %d", size)
	}
	if off := vm.Offset(addr); off+uint64(size) <= vm.PageSize {
		frame, err := m.access(addr, vm.AccessWrite)
		if err != nil {
			return err
		}
		b := m.mem.FrameForWrite(frame)[off:]
		switch size {
		case 1:
			b[0] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(b, uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(val))
		default:
			binary.LittleEndian.PutUint64(b, val)
		}
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	return m.WriteBytes(addr, buf[:size])
}

// PeekBytes reads memory without charging cycles, TLB, or cache state, and
// ignoring protection (but not mappings). It is the debugger/GC view of
// memory: the conservative collector of §3.4 scans pool pages this way, and
// tests use it to assert on memory contents without perturbing stats.
func (m *MMU) PeekBytes(addr vm.Addr, buf []byte) error {
	for len(buf) > 0 {
		frame, _, ok := m.space.Lookup(vm.PageOf(addr))
		if !ok {
			return &vm.Fault{Addr: addr, Access: vm.AccessRead, Reason: vm.FaultUnmapped}
		}
		off := vm.Offset(addr)
		n := copy(buf, m.mem.Frame(frame)[off:])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// PokeBytes writes memory without charging cycles or consulting protection
// (but mappings must exist). It is the loader's view of memory: program
// text/data setup before the measured run starts.
func (m *MMU) PokeBytes(addr vm.Addr, buf []byte) error {
	for len(buf) > 0 {
		frame, _, ok := m.space.Lookup(vm.PageOf(addr))
		if !ok {
			return &vm.Fault{Addr: addr, Access: vm.AccessWrite, Reason: vm.FaultUnmapped}
		}
		off := vm.Offset(addr)
		n := copy(m.mem.FrameForWrite(frame)[off:], buf)
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// PeekWord reads a size-byte word the way PeekBytes does.
func (m *MMU) PeekWord(addr vm.Addr, size int) (uint64, error) {
	var buf [8]byte
	if size != 1 && size != 2 && size != 4 && size != 8 {
		return 0, fmt.Errorf("mmu: bad word size %d", size)
	}
	if err := m.PeekBytes(addr, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}
