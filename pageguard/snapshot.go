package pageguard

import (
	"fmt"

	"repro/internal/sim/kernel"
)

// Snapshot is a pre-warmed, frozen machine+process image that can be forked
// into runnable Machines in microseconds. The expensive part of serving one
// replay request — booting a machine and setting up a process (stack and
// globals mappings, frame zeroing, page-table population) — is paid once at
// snapshot time; each Fork shares the snapshot's physical frames and radix
// page-table nodes copy-on-write, exactly the aliasing idea the detector
// itself plays with shadow pages, applied one level up.
//
// A Snapshot is immutable after NewSnapshot returns and is safe for
// concurrent Fork calls from many goroutines.
type Snapshot struct {
	base machineConfig
	sys  *kernel.System
	proc *kernel.Process
}

// NewSnapshot boots a machine with the given options, creates and fully sets
// up one process on it, and freezes the pair as a fork source.
//
// Options that reconfigure the machine's structure (MaxFrames, StackPages,
// the MMU/cost model) are baked into the snapshot and must match at Fork
// time; per-request knobs (fault schedule, VA budget, reuse policy,
// overflow guards, sampling, span tracing) may be changed freely by Fork's
// extra options.
func NewSnapshot(opts ...Option) (*Snapshot, error) {
	m := NewMachine(opts...)
	if m.cfg.specErr != nil {
		return nil, m.cfg.specErr
	}
	proc, err := kernel.NewProcess(m.sys, m.cfg.kernel)
	if err != nil {
		return nil, err
	}
	m.sys.Freeze()
	proc.Space().Freeze()
	return &Snapshot{base: m.cfg, sys: m.sys, proc: proc}, nil
}

// structural returns cfg's kernel configuration with the fork-compatible
// per-request knobs (fault schedule, VA budget) cleared, for comparison.
func structural(cfg machineConfig) kernel.Config {
	k := cfg.kernel
	k.Faults = nil
	k.VABudgetPages = 0
	return k
}

// Fork clones the snapshot into an independent, mutable Machine whose first
// NewProcess call returns the pre-warmed process clone instead of building
// one from scratch. The result is observationally byte-identical to a fresh
// NewMachine(baseOpts + extra...) followed by NewProcess: same simulated
// numbers, same deterministic fault streams, same trap reports.
//
// extra options may adjust per-request knobs (WithFaultSchedule,
// WithVABudget, WithPolicySpec, WithReusePolicy, WithOverflowGuards,
// WithSampling, WithSpanTracing); an option that would change the machine's
// structure away from the snapshot's returns an error.
// A per-request knob the process cannot be set up with (a malformed spec, a
// VA budget below the fixed stack+globals pages) is not a Fork error: the
// returned machine is unforked, and its first NewProcess reports exactly the
// error a fresh machine's would.
func (s *Snapshot) Fork(extra ...Option) (*Machine, error) {
	cfg := s.base
	for _, o := range extra {
		o(&cfg)
	}
	if cfg.specErr != nil {
		return unforked(cfg), nil
	}
	if structural(cfg) != structural(s.base) {
		return nil, fmt.Errorf("pageguard: fork options change the machine structure (snapshot %+v, fork %+v)",
			structural(s.base), structural(cfg))
	}
	sys := s.sys.Fork()
	proc, err := s.proc.Fork(sys, cfg.kernel)
	if err != nil {
		return unforked(cfg), nil
	}
	return &Machine{cfg: cfg, sys: sys, prepared: proc}, nil
}

// unforked is a fresh machine with no prepared process, for a fork whose
// process cannot be set up: NewProcess then takes the fresh path and fails
// with its error, before any simulated work.
func unforked(cfg machineConfig) *Machine {
	return &Machine{cfg: cfg, sys: kernel.NewSystem(cfg.kernel)}
}
