// Package cost defines the deterministic cycle-accounting model used by the
// whole simulation.
//
// The paper (Dhurjati & Adve, DSN 2006) reports execution-time *ratios*
// between build configurations on a 32-bit Xeon. Since this reproduction runs
// on a software MMU rather than real hardware, absolute seconds are
// meaningless; instead every component charges cycles to a Meter according to
// a Model, and the experiment harness reports ratios of accumulated cycles.
// The Model constants are chosen so that the relative magnitudes match the
// hardware the paper describes: a syscall costs hundreds of cycles, a TLB
// miss tens, an L1-style cache miss tens, and a protection trap thousands.
package cost

import "fmt"

// Model is the set of cycle prices charged by the simulator. A Model is
// immutable once in use; construct variants with the With* helpers.
type Model struct {
	// Instr is the base cost of executing one IR instruction.
	Instr uint64
	// Mem is the base cost of a load or store that hits both the TLB and
	// the data cache.
	Mem uint64
	// TLBL1Miss is the penalty for an L1-TLB miss that hits the L2 TLB.
	TLBL1Miss uint64
	// TLBMiss is the full page-walk penalty when both TLB levels miss.
	TLBMiss uint64
	// CacheMiss is the penalty added on a data-cache miss.
	CacheMiss uint64
	// Syscall is the cost of one memory-management system call (mmap,
	// mremap, mprotect, munmap, or a dummy call), excluding per-page
	// work. An mremap or mprotect on 2006-era Linux took roughly half a
	// microsecond to a few microseconds — thousands of cycles — which is
	// why the paper's approach is expensive exactly when allocation is
	// frequent.
	Syscall uint64
	// SyscallPage is the additional kernel cost per page touched by a
	// syscall (page-table edits, TLB shootdown).
	SyscallPage uint64
	// Trap is the cost of a protection fault delivered to the run-time
	// system (only paid on an actual dangling access, never on the fast
	// path).
	Trap uint64
	// AllocatorOp is the user-level bookkeeping cost of one
	// malloc/free/poolalloc/poolfree operation (list manipulation).
	AllocatorOp uint64
	// CodeGenFactorPct scales instruction cost to model code-generator
	// quality, in percent. The paper compares GCC -O3 ("native") against
	// the LLVM C back-end ("LLVM base"); the two differ by a small
	// constant factor. 100 means 1.0x.
	CodeGenFactorPct uint64
	// InterpFactorPct multiplies *all* instruction and memory costs to
	// model dynamic binary instrumentation (the Valgrind baseline runs
	// every instruction under a software interpreter). 100 means 1.0x.
	InterpFactorPct uint64
	// CheckCost is the per-memory-access software check cost used by the
	// Valgrind and capability-store baselines.
	CheckCost uint64
}

// Default is the reference model. The ratios between its constants are the
// load-bearing part; see the package comment.
func Default() Model {
	return Model{
		Instr:            1,
		Mem:              2,
		TLBL1Miss:        7,
		TLBMiss:          30,
		CacheMiss:        24,
		Syscall:          1200,
		SyscallPage:      40,
		Trap:             3000,
		AllocatorOp:      40,
		CodeGenFactorPct: 100,
		InterpFactorPct:  100,
		CheckCost:        0,
	}
}

// Native returns the model for GCC -O3 style code generation. The paper's
// Table 1 shows LLVM-base within a few percent of native either way; we model
// native as slightly cheaper per instruction.
func Native() Model {
	m := Default()
	m.CodeGenFactorPct = 96
	return m
}

// LLVMBase returns the model for the LLVM C back-end baseline, the
// denominator of the paper's Ratio 1.
func LLVMBase() Model { return Default() }

// Valgrind returns the model for the dynamic-binary-instrumentation baseline:
// every instruction is interpreted and every access is checked in software.
func Valgrind() Model {
	m := Default()
	m.InterpFactorPct = 1400
	m.CheckCost = 18
	return m
}

// Capability returns the model for the SafeC/FisherPatil/Xu style baseline:
// compiled code with a software capability check on each memory access.
func Capability() Model {
	m := Default()
	m.CheckCost = 6
	return m
}

// WithSyscall returns a copy of m with the syscall cost replaced. Used by the
// syscall-latency ablation (the paper proposes OS changes to cut this cost).
func (m Model) WithSyscall(c uint64) Model {
	m.Syscall = c
	return m
}

// WithTLBMiss returns a copy of m with the TLB miss penalty replaced. Used by
// the TLB ablation (the paper proposes architectural changes here).
func (m Model) WithTLBMiss(c uint64) Model {
	m.TLBMiss = c
	return m
}

// instrCostNumerator returns the per-instruction cost scaled by 10000 so
// that sub-cycle per-instruction costs (e.g. the native model's 0.96
// cycles/instruction) accumulate without truncation.
func (m Model) instrCostNumerator() uint64 {
	return m.Instr * m.CodeGenFactorPct * m.InterpFactorPct
}

// MemCost returns the base cost of one memory access (before TLB and cache
// penalties) under the interpretation factor.
func (m Model) MemCost() uint64 {
	return m.Mem * m.InterpFactorPct / 100
}

// Meter accumulates cycles and event counts for one simulated execution.
// It is not safe for concurrent use; each simulated process owns one.
//
// The Model's derived prices are precomputed at construction: ChargeInstr and
// ChargeMem sit on the simulator's per-instruction hot path, and recomputing
// instrCostNumerator/MemCost there costs a Model copy plus a multiply/divide
// per charge. The precomputed fields are pure functions of the (immutable)
// Model, so the charged cycles are bit-identical to the direct computation.
type Meter struct {
	model Model

	// instrWhole/instrRem split instrCostNumerator into whole cycles and a
	// sub-cycle remainder (in 1/10000ths) per instruction; memCost is
	// MemCost()+CheckCost, the flat price of a TLB-hit cache-hit access.
	instrWhole uint64
	instrRem   uint64
	memCost    uint64

	cycles      uint64
	instrFrac   uint64 // sub-cycle instruction cost remainder, in 1/10000ths
	instrs      uint64
	memAccesses uint64
	syscalls    uint64
	traps       uint64
}

// NewMeter returns a Meter charging prices from model.
func NewMeter(model Model) *Meter {
	num := model.instrCostNumerator()
	return &Meter{
		model:      model,
		instrWhole: num / 10000,
		instrRem:   num % 10000,
		memCost:    model.MemCost() + model.CheckCost,
	}
}

// Model returns the price list this meter charges.
func (mt *Meter) Model() Model { return mt.model }

// Clone returns an independent copy of the meter, counters included. Used by
// machine-snapshot forking, where each fork continues charging from the
// snapshot's accumulated state.
func (mt *Meter) Clone() *Meter {
	cp := *mt
	return &cp
}

// Cycles returns the total cycles charged so far.
func (mt *Meter) Cycles() uint64 { return mt.cycles }

// Instrs returns the number of instructions charged.
func (mt *Meter) Instrs() uint64 { return mt.instrs }

// MemAccesses returns the number of memory accesses charged.
func (mt *Meter) MemAccesses() uint64 { return mt.memAccesses }

// Syscalls returns the number of system calls charged.
func (mt *Meter) Syscalls() uint64 { return mt.syscalls }

// Traps returns the number of protection traps charged.
func (mt *Meter) Traps() uint64 { return mt.traps }

// ChargeInstr charges n executed instructions, carrying sub-cycle remainders
// so fractional per-instruction models accumulate exactly.
func (mt *Meter) ChargeInstr(n uint64) {
	mt.instrs += n
	mt.cycles += n * mt.instrWhole
	if mt.instrRem != 0 {
		mt.instrFrac += n * mt.instrRem
		mt.cycles += mt.instrFrac / 10000
		mt.instrFrac %= 10000
	}
}

// TLBOutcome classifies a memory access's TLB behaviour.
type TLBOutcome int

// TLB outcomes.
const (
	// TLBHit: the L1 TLB hit (no penalty).
	TLBHit TLBOutcome = iota
	// TLBL2Hit: L1 missed, L2 hit (small penalty).
	TLBL2Hit
	// TLBMissAll: both levels missed (full page walk).
	TLBMissAll
)

// ChargeMem charges one memory access with the given TLB outcome; cacheMiss
// adds the cache penalty; the per-access software check cost (if the model
// has one) is always added.
func (mt *Meter) ChargeMem(tlb TLBOutcome, cacheMiss bool) {
	mt.memAccesses++
	c := mt.memCost
	switch tlb {
	case TLBL2Hit:
		c += mt.model.TLBL1Miss
	case TLBMissAll:
		c += mt.model.TLBMiss
	}
	if cacheMiss {
		c += mt.model.CacheMiss
	}
	mt.cycles += c
}

// ChargeSyscall charges one system call touching pages pages.
func (mt *Meter) ChargeSyscall(pages uint64) {
	mt.syscalls++
	mt.cycles += mt.model.Syscall + pages*mt.model.SyscallPage
}

// ChargeTrap charges one protection-fault delivery.
func (mt *Meter) ChargeTrap() {
	mt.traps++
	mt.cycles += mt.model.Trap
}

// ChargeAllocatorOp charges one allocator bookkeeping operation.
func (mt *Meter) ChargeAllocatorOp() {
	mt.cycles += mt.model.AllocatorOp
}

// ChargeRaw charges an explicit number of cycles. Components with costs not
// covered by the standard categories (for example the conservative GC sweep)
// use this.
func (mt *Meter) ChargeRaw(c uint64) {
	mt.cycles += c
}

// Snapshot is a point-in-time copy of a Meter's counters.
type Snapshot struct {
	Cycles      uint64
	Instrs      uint64
	MemAccesses uint64
	Syscalls    uint64
	Traps       uint64
}

// Snapshot returns the current counters.
func (mt *Meter) Snapshot() Snapshot {
	return Snapshot{
		Cycles:      mt.cycles,
		Instrs:      mt.instrs,
		MemAccesses: mt.memAccesses,
		Syscalls:    mt.syscalls,
		Traps:       mt.traps,
	}
}

// Sub returns the counter deltas from earlier to s.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	return Snapshot{
		Cycles:      s.Cycles - earlier.Cycles,
		Instrs:      s.Instrs - earlier.Instrs,
		MemAccesses: s.MemAccesses - earlier.MemAccesses,
		Syscalls:    s.Syscalls - earlier.Syscalls,
		Traps:       s.Traps - earlier.Traps,
	}
}

// String renders the snapshot compactly for logs and test failures.
func (s Snapshot) String() string {
	return fmt.Sprintf("cycles=%d instrs=%d mem=%d syscalls=%d traps=%d",
		s.Cycles, s.Instrs, s.MemAccesses, s.Syscalls, s.Traps)
}
