package experiment

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/minic/driver"
	"repro/internal/minic/interp"
	"repro/internal/minic/ir"
	"repro/internal/obs"
	"repro/internal/runtimes"
	"repro/internal/sim/kernel"
	"repro/internal/workload"
)

// Trap containment: the production property that a dangling-pointer trap in
// one connection terminates only that connection. One mid-run connection of
// a server executes a buggy handler (workload.BuggyServerSource); the
// experiment then verifies every other scripted connection is served with
// its expected output, and the buggy one dies with a preserved
// *core.DanglingError diagnostic.

// ContainmentMode selects the server's concurrency model.
type ContainmentMode int

// Containment modes.
const (
	// ForkPerConnection runs each connection in its own process (the
	// paper's §4.3 server structure): containment comes from process
	// isolation, the parent just reaps the faulted child.
	ForkPerConnection ContainmentMode = iota + 1
	// InProcess runs every connection in ONE process sharing ONE
	// shadow-page engine: containment must come from the runtime
	// absorbing the trap, explaining it, and leaving its own bookkeeping
	// intact for the next connection.
	InProcess
)

// String implements fmt.Stringer.
func (m ContainmentMode) String() string {
	switch m {
	case ForkPerConnection:
		return "fork-per-conn"
	case InProcess:
		return "in-process"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ConnOutcome is one connection's fate.
type ConnOutcome struct {
	Conn   int
	Output string
	Err    error
}

// ContainmentReport is the result of one containment run.
type ContainmentReport struct {
	Workload    string
	Mode        ContainmentMode
	Connections int
	// BuggyConn is the connection index that ran the planted-UAF handler.
	BuggyConn int
	// Served counts connections that completed with the expected output.
	Served int
	// Contained counts connections terminated by a *core.DanglingError.
	Contained int
	// Diagnostic is the preserved dangling-use report of the buggy
	// connection.
	Diagnostic string
	// Report is the full forensic trap report of the buggy connection
	// (alloc/free/use sites, pool, offsets, dangle duration).
	Report   *obs.TrapReport
	Outcomes []ConnOutcome
}

// RunContainment serves the named server workload's scripted connections
// with a use-after-free planted in the middle connection, in the given mode,
// and reports each connection's fate.
func RunContainment(name string, mode ContainmentMode, opts Options) (*ContainmentReport, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	buggy, err := workload.BuggyServerSource(name)
	if err != nil {
		return nil, err
	}
	cleanProg, _, err := driver.CompileWithPools(w.Source)
	if err != nil {
		return nil, fmt.Errorf("containment: compile %s: %w", name, err)
	}
	buggyProg, _, err := driver.CompileWithPools(buggy.Source)
	if err != nil {
		return nil, fmt.Errorf("containment: compile %s: %w", buggy.Name, err)
	}

	conns := w.Connections
	if conns < 2 {
		return nil, fmt.Errorf("containment: %s has %d connections, need >= 2", name, conns)
	}
	rep := &ContainmentReport{
		Workload:    name,
		Mode:        mode,
		Connections: conns,
		BuggyConn:   conns / 2,
	}

	cfg := kernel.DefaultConfig()
	if opts.Kernel != nil {
		cfg = *opts.Kernel
	}
	if opts.Faults != "" {
		sched, err := kernel.ParseSchedule(opts.Faults)
		if err != nil {
			return nil, fmt.Errorf("containment: %w", err)
		}
		cfg.Faults = &sched
	}
	sys := kernel.NewSystem(cfg)
	icfg := interp.Config{StepLimit: opts.StepLimit}

	// The server's scripted connections are deterministic, so the expected
	// per-connection output is the clean program's output on a pristine
	// process.
	expected, err := connOutput(cleanProg, kernel.NewSystem(cfg), cfg, icfg)
	if err != nil {
		return nil, fmt.Errorf("containment: reference run: %w", err)
	}

	progFor := func(i int) *ir.Program {
		if i == rep.BuggyConn {
			return buggyProg
		}
		return cleanProg
	}

	var sharedProc *kernel.Process
	var sharedRT *runtimes.Shadow
	if mode == InProcess {
		sharedProc, err = kernel.NewProcess(sys, cfg)
		if err != nil {
			return nil, err
		}
		sharedRT = runtimes.NewShadow(sharedProc, core.Config{})
	}

	for i := 0; i < conns; i++ {
		var res *driver.RunResult
		switch mode {
		case ForkPerConnection:
			res, err = driver.Run(progFor(i), sys, cfg, func(p *kernel.Process) interp.Runtime {
				return runtimes.NewShadow(p, core.Config{})
			}, icfg)
		case InProcess:
			res, err = driver.RunOn(progFor(i), sharedProc, sharedRT, icfg)
		default:
			return nil, fmt.Errorf("containment: unknown mode %v", mode)
		}
		if err != nil {
			return nil, fmt.Errorf("containment: %s conn %d: %w", name, i, err)
		}
		out := ConnOutcome{Conn: i, Output: res.Machine.Output(), Err: res.Err}
		rep.Outcomes = append(rep.Outcomes, out)

		var de *core.DanglingError
		switch {
		case errors.As(out.Err, &de):
			// The trap killed this connection only; its diagnostic is the
			// server's log line.
			rep.Contained++
			if rep.Diagnostic == "" {
				rep.Diagnostic = de.Error()
			}
			if rep.Report == nil {
				rep.Report = de.Report
			}
		case out.Err == nil && out.Output == expected:
			rep.Served++
		}

		if opts.Audit && mode == InProcess {
			if err := sharedRT.Remapper().HealthCheck(); err != nil {
				return nil, fmt.Errorf("containment: %s conn %d: %w", name, i, err)
			}
		}
		if mode == ForkPerConnection {
			if err := res.Proc.Exit(); err != nil {
				return nil, fmt.Errorf("containment: %s conn %d exit: %w", name, i, err)
			}
		}
	}
	if mode == InProcess {
		if err := sharedProc.Exit(); err != nil {
			return nil, fmt.Errorf("containment: %s exit: %w", name, err)
		}
	}
	return rep, nil
}

// connOutput runs one clean connection on a fresh process and returns its
// output.
func connOutput(prog *ir.Program, sys *kernel.System, cfg kernel.Config, icfg interp.Config) (string, error) {
	res, err := driver.Run(prog, sys, cfg, func(p *kernel.Process) interp.Runtime {
		return runtimes.NewShadow(p, core.Config{})
	}, icfg)
	if err != nil {
		return "", err
	}
	if res.Err != nil {
		return "", res.Err
	}
	return res.Machine.Output(), res.Proc.Exit()
}

// ContainmentCell is one row of the containment study.
type ContainmentCell struct {
	Report *ContainmentReport
}

// ContainmentStudy holds the §"production hardening" containment table.
type ContainmentStudy struct {
	Cells []ContainmentCell
}

// GenContainmentStudy runs the containment experiment for both server
// workloads in both modes, erroring unless every run shows full containment:
// all clean connections served, exactly the buggy one terminated, diagnostic
// preserved.
func GenContainmentStudy(opts Options) (*ContainmentStudy, error) {
	opts.Audit = true
	study := &ContainmentStudy{}
	for _, name := range []string{"ghttpd", "ftpd"} {
		for _, mode := range []ContainmentMode{ForkPerConnection, InProcess} {
			rep, err := RunContainment(name, mode, opts)
			if err != nil {
				return nil, err
			}
			if rep.Contained != 1 {
				return nil, fmt.Errorf("containment: %s/%v contained %d connections, want exactly 1",
					name, mode, rep.Contained)
			}
			if rep.Served != rep.Connections-1 {
				return nil, fmt.Errorf("containment: %s/%v served %d of %d clean connections",
					name, mode, rep.Served, rep.Connections-1)
			}
			if !strings.Contains(rep.Diagnostic, "dangling") {
				return nil, fmt.Errorf("containment: %s/%v diagnostic lost: %q", name, mode, rep.Diagnostic)
			}
			if err := checkTrapReport(name, mode, rep.Report); err != nil {
				return nil, err
			}
			study.Cells = append(study.Cells, ContainmentCell{Report: rep})
		}
	}
	return study, nil
}

// checkTrapReport verifies the forensic report of a planted UAF: the sites
// must name the handler function (both servers plant the bug in main), the
// kind must match the planted access (ghttpd scribbles, ftpd reads), the
// free must precede the use, and the report must survive a JSON round trip.
func checkTrapReport(name string, mode ContainmentMode, rep *obs.TrapReport) error {
	if rep == nil {
		return fmt.Errorf("containment: %s/%v trap report lost", name, mode)
	}
	wantKind := obs.TrapWrite
	if name == "ftpd" {
		wantKind = obs.TrapRead
	}
	if rep.Kind != wantKind {
		return fmt.Errorf("containment: %s/%v trap kind %q, want %q", name, mode, rep.Kind, wantKind)
	}
	for what, site := range map[string]string{
		"alloc": rep.AllocSite, "free": rep.FreeSite, "use": rep.UseSite,
	} {
		if !strings.HasPrefix(site, "main:") {
			return fmt.Errorf("containment: %s/%v %s site %q does not name the handler",
				name, mode, what, site)
		}
	}
	if rep.AllocSite == rep.FreeSite || rep.FreeSite == rep.UseSite {
		return fmt.Errorf("containment: %s/%v sites not distinct: alloc=%q free=%q use=%q",
			name, mode, rep.AllocSite, rep.FreeSite, rep.UseSite)
	}
	if rep.Offset != 0 || rep.State != "freed" {
		return fmt.Errorf("containment: %s/%v offset=%d state=%q, want 0/freed",
			name, mode, rep.Offset, rep.State)
	}
	if rep.Pool == "" {
		return fmt.Errorf("containment: %s/%v report names no pool", name, mode)
	}
	if rep.TrapCycles <= rep.FreeCycles || rep.CyclesSinceFree == 0 {
		return fmt.Errorf("containment: %s/%v dangle duration broken: free=%d trap=%d",
			name, mode, rep.FreeCycles, rep.TrapCycles)
	}
	// The flight recorder must have ridden along: every trap report carries
	// the last-N event snapshot, and it must include the trapped object's
	// own alloc and free (the planted bug uses the object soon after the
	// free, well inside the ring's horizon).
	if len(rep.Flight) == 0 {
		return fmt.Errorf("containment: %s/%v trap report carries no flight snapshot", name, mode)
	}
	var sawAlloc, sawFree, sawTrap bool
	for _, ev := range rep.Flight {
		switch ev.Kind {
		case obs.FlightAlloc:
			sawAlloc = sawAlloc || ev.Obj == rep.ObjectSeq
		case obs.FlightFree:
			sawFree = sawFree || ev.Obj == rep.ObjectSeq
		case obs.FlightTrap:
			sawTrap = true
		}
	}
	if !sawAlloc || !sawFree || !sawTrap {
		return fmt.Errorf("containment: %s/%v flight snapshot missing the object's history (alloc=%v free=%v trap=%v, %d events)",
			name, mode, sawAlloc, sawFree, sawTrap, len(rep.Flight))
	}
	data, err := rep.JSON()
	if err != nil {
		return fmt.Errorf("containment: %s/%v report JSON: %w", name, mode, err)
	}
	back, err := obs.ParseTrapReport(data)
	if err != nil {
		return fmt.Errorf("containment: %s/%v report re-parse: %w", name, mode, err)
	}
	if back.String() != rep.String() {
		return fmt.Errorf("containment: %s/%v report text changed across JSON round trip", name, mode)
	}
	return nil
}

// String renders the containment study as a table.
func (s *ContainmentStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Trap containment: planted use-after-free in one connection\n")
	fmt.Fprintf(&b, "%-8s %-14s %6s %7s %7s %10s\n",
		"server", "mode", "conns", "served", "trapped", "buggy-conn")
	for _, c := range s.Cells {
		r := c.Report
		fmt.Fprintf(&b, "%-8s %-14s %6d %7d %7d %10d\n",
			r.Workload, r.Mode.String(), r.Connections, r.Served, r.Contained, r.BuggyConn)
	}
	for _, c := range s.Cells {
		if c.Report.Mode == ForkPerConnection {
			fmt.Fprintf(&b, "\n%s diagnostic: %s\n", c.Report.Workload, c.Report.Diagnostic)
		}
	}
	return b.String()
}
