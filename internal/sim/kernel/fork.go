// Machine snapshot forking: a frozen System/Process pair can be cloned
// copy-on-write, so a server answering many independent requests pays the
// process-setup cost (stack and globals mappings, frame zeroing, page-table
// population) once instead of per request. The clone shares physical frames
// and radix page-table nodes with the frozen snapshot and unshares them only
// on first write — the paper's aliasing insight (many views, one backing
// store) applied to whole machines rather than single pages.
package kernel

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sim/mmu"
)

// Freeze marks the machine as an immutable snapshot parent: its physical
// memory rejects all mutation and Fork becomes legal. Call it once, single-
// threaded, after the snapshot process is fully set up.
func (s *System) Freeze() { s.mem.Freeze() }

// Fork returns a mutable copy-on-write clone of a frozen machine. The clone
// numbers its processes from zero, so a process forked onto it draws the
// same deterministic fault-injection stream a fresh machine's first process
// would. Safe to call from many goroutines at once: it only reads the frozen
// parent.
func (s *System) Fork() *System {
	return &System{mem: s.mem.Fork()}
}

// Fork clones a snapshot process onto sys (a Fork of the process's own
// frozen machine). cfg supplies the per-request knobs that do not disturb
// the snapshot state — fault schedule, VA budget — plus the structural
// configuration, which must match the snapshot's (the caller is responsible
// for that; pageguard.Snapshot verifies it). The clone is observationally
// identical to a process freshly created by NewProcess with cfg on a fresh
// machine: same address-space layout, same meter state, same injector
// stream, same empty MMU caches.
func (p *Process) Fork(sys *System, cfg Config) (*Process, error) {
	if cfg.StackPages == 0 {
		cfg.StackPages = 256
	}
	if cfg.GlobalPages == 0 {
		cfg.GlobalPages = 64
	}
	if cfg.VABudgetPages != 0 {
		if need := cfg.StackPages + cfg.GlobalPages; cfg.VABudgetPages < need {
			return nil, fmt.Errorf("kernel: VA budget of %d pages cannot cover the %d fixed stack+globals pages", cfg.VABudgetPages, need)
		}
	}
	space := p.space.Fork()
	// The snapshot's setup already drew its stack+globals reservations, so
	// installing the budget now gates exactly the reservations a fresh
	// process would have left after the same setup.
	space.SetBudget(cfg.VABudgetPages)
	meter := p.meter.Clone()
	q := &Process{
		sys:         sys,
		space:       space,
		mmu:         mmu.New(space, sys.mem, meter, cfg.MMU),
		meter:       meter,
		frameRefs:   make([]int32, len(p.frameRefs)),
		inject:      cfg.Faults.NewInjector(sys.procSeq),
		prof:        obs.NewSiteProfile(),
		flight:      obs.NewFlightRecorder(obs.DefaultFlightCap),
		sysCounts:   p.sysCounts,
		sysCycles:   p.sysCycles,
		sysPages:    p.sysPages,
		trapCycles:  p.trapCycles,
		gcCycles:    p.gcCycles,
		stackBase:   p.stackBase,
		stackLimit:  p.stackLimit,
		globalBase:  p.globalBase,
		globalLimit: p.globalLimit,
		globalNext:  p.globalNext,
	}
	copy(q.frameRefs, p.frameRefs)
	for i, h := range p.sysHist {
		if h != nil {
			q.sysHist[i] = h.Clone()
		}
	}
	sys.procSeq++
	return q, nil
}

// Release hands the page-table nodes this process owns and its flight
// recorder back to their shared pools. The process is unusable afterwards;
// release its System's physical memory after it.
func (p *Process) Release() {
	p.space.Release()
	p.flight.Release()
	p.flight = nil
}
