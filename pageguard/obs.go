package pageguard

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// Observability surface of the public API: trap forensics, the metrics
// registry, and the cycle-attribution profiler, re-exported from
// internal/obs so library users never import internal packages.

// TrapReport is the forensic record of one detected dangling pointer use:
// object provenance (alloc/free sites, pool), the faulting access (kind,
// offset, addresses), and timing (cycles since free). Render it with
// String() (ASan-style text) or JSON().
type TrapReport = obs.TrapReport

// Trap kinds.
const (
	TrapRead       = obs.TrapRead
	TrapWrite      = obs.TrapWrite
	TrapDoubleFree = obs.TrapDoubleFree
)

// ParseTrapReport decodes a report from its JSON form.
var ParseTrapReport = obs.ParseTrapReport

// Registry collects the detector's metrics: counters, gauges, and
// fixed-bucket histograms, renderable as Prometheus text or JSON.
type Registry = obs.Registry

// MetricsSnapshot is a point-in-time read of a Registry, diffable with Sub
// and mergeable with Add.
type MetricsSnapshot = obs.Snapshot

// SiteProfile is the per-allocation-site breakdown of where the detector's
// cycles went (remap, protect, trap).
type SiteProfile = obs.SiteProfile

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// RegisterMetrics registers every metric the process's layers expose —
// kernel syscall/cycle/trap series with per-call histograms, and the
// detector's allocation, detection, and degradation counters — on r. All
// series are function-backed, so register once and snapshot at any time.
func (p *Process) RegisterMetrics(r *Registry) {
	p.proc.RegisterMetrics(r)
	p.remap.RegisterMetrics(r)
}

// Profile returns the process's per-allocation-site cycle attribution, or
// nil unless the machine was built WithSiteProfile. The profile's total
// equals the kernel's total charged cycles exactly (see TopTable and
// FlatProfile for renderings).
func (p *Process) Profile() *SiteProfile { return p.proc.Profile() }

// ChargedCycles returns the total cycles the kernel charged this process
// for syscalls and trap deliveries — the reference value Profile sums to.
func (p *Process) ChargedCycles() uint64 { return p.proc.KernelChargedCycles() }

// Span is one cycle-stamped region of a traced execution. Leaf spans are
// emitted at the kernel's single charge point; the sum of their durations
// over a process equals ChargedCycles exactly.
type Span = obs.Span

// FlightEvent is one entry in the always-on flight recorder: the last-N
// allocator, syscall, fault, GC, and degradation events, shared into every
// TrapReport's flight window and copied into every HealthCheck failure.
type FlightEvent = obs.FlightEvent

// HealthError is a HealthCheck violation carrying the flight-recorder
// snapshot taken at audit time.
type HealthError = core.HealthError

// WriteSpansNDJSON writes spans as NDJSON {"type":"span",...} lines, one
// per span, byte-deterministically.
var WriteSpansNDJSON = obs.WriteSpansNDJSON

// FormatFlight renders a flight-recorder snapshot as indented text lines —
// the dump pgrun and pgtrace attach below trap reports.
var FormatFlight = obs.FormatFlight

// LeafSpanCycleSum sums the durations of the leaf spans — the quantity
// that must reconcile exactly with ChargedCycles for a traced process.
var LeafSpanCycleSum = obs.LeafCycleSum

// Spans returns the spans recorded so far (nil when tracing is disabled).
func (p *Process) Spans() []Span { return p.proc.Tracer().Spans() }

// BeginSpan opens a named grouping span (a request, a replay, one traced
// operation); close it with EndSpan. A disabled tracer returns 0, which
// EndSpan ignores — callers never need to know whether tracing is on.
func (p *Process) BeginSpan(name, site string) uint64 { return p.proc.Tracer().Begin(name, site) }

// EndSpan closes a span opened by BeginSpan.
func (p *Process) EndSpan(id uint64) { p.proc.Tracer().End(id) }

// FlightEvents returns a copy of the flight recorder's retained events,
// oldest first.
func (p *Process) FlightEvents() []FlightEvent { return p.proc.Flight().Snapshot() }
