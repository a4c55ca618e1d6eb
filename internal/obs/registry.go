package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// The metrics registry. Series identity is the full name including its
// canonical label block, e.g. `pg_syscall_cycles_total{call="mremap"}`; the
// family (the part before '{') groups series for Prometheus HELP/TYPE
// lines. The simulator is single-threaded per process, so there is no
// locking; merging across processes happens on Snapshots, which are plain
// values.

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v uint64
	f func() uint64 // function-backed counters read at collection time
}

// Add increments a value-backed counter.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c.f != nil {
		return c.f()
	}
	return c.v
}

// Gauge is an instantaneous float64 metric.
type Gauge struct {
	v float64
	f func() float64
}

// Set replaces a value-backed gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g.f != nil {
		return g.f()
	}
	return g.v
}

// Histogram is a fixed-bucket cumulative histogram of uint64 observations.
// Buckets are upper bounds (inclusive, Prometheus `le` semantics); an
// implicit +Inf bucket is always present.
type Histogram struct {
	bounds []uint64 // sorted upper bounds, exclusive of +Inf
	counts []uint64 // len(bounds)+1; last is the +Inf bucket
	sum    uint64
	count  uint64
}

// NewHistogram returns a standalone histogram (attachable to a registry
// later with AttachHistogram). bounds must be sorted ascending; copied.
func NewHistogram(bounds []uint64) *Histogram {
	return &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v uint64) {
	h.sum += v
	h.count++
	for i, ub := range h.bounds {
		if v <= ub {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Sum and Count expose the aggregate observation state.
func (h *Histogram) Sum() uint64   { return h.sum }
func (h *Histogram) Count() uint64 { return h.count }

// Registry holds one layer's (or one process's) registered metrics.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // keyed by family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		help:     make(map[string]string),
	}
}

// family is the series name up to the label block.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) setHelp(name, help string) {
	fam := family(name)
	if help != "" && r.help[fam] == "" {
		r.help[fam] = help
	}
}

// Counter registers (or returns the existing) value-backed counter.
func (r *Registry) Counter(name, help string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{}
	r.counters[name] = c
	r.setHelp(name, help)
	return c
}

// CounterFunc registers a function-backed counter, read at snapshot time.
// Registering over an existing series replaces it.
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.counters[name] = &Counter{f: f}
	r.setHelp(name, help)
}

// Gauge registers (or returns the existing) value-backed gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.setHelp(name, help)
	return g
}

// GaugeFunc registers a function-backed gauge, read at snapshot time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.gauges[name] = &Gauge{f: f}
	r.setHelp(name, help)
}

// Histogram registers (or returns the existing) fixed-bucket histogram.
// bounds must be sorted ascending; they are copied.
func (r *Registry) Histogram(name, help string, bounds []uint64) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	h := &Histogram{
		bounds: append([]uint64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists[name] = h
	r.setHelp(name, help)
	return h
}

// AttachHistogram registers an externally owned histogram (a layer that
// observes into its own Histogram hands it to the registry for exposition).
func (r *Registry) AttachHistogram(name, help string, h *Histogram) {
	r.hists[name] = h
	r.setHelp(name, help)
}

// HistogramSnapshot is the point-in-time state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (exclusive of +Inf).
	Bounds []uint64 `json:"bounds"`
	// Counts are per-bucket (non-cumulative) observation counts; the last
	// entry is the +Inf bucket.
	Counts []uint64 `json:"counts"`
	Sum    uint64   `json:"sum"`
	Count  uint64   `json:"count"`
}

// Snapshot is a point-in-time, diffable, mergeable copy of a registry's
// series. Snapshots from different processes (same schema) add together —
// that is how per-connection metrics aggregate into a per-workload export.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Help carries family help strings for exposition.
	Help map[string]string `json:"-"`
}

// Snapshot collects every registered series.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Help:       make(map[string]string, len(r.help)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnapshot{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Sum:    h.sum,
			Count:  h.count,
		}
	}
	for fam, help := range r.help {
		s.Help[fam] = help
	}
	return s
}

// Add merges other into s (series-wise sums; gauges add, which is the right
// semantics for the additive gauges this codebase registers, e.g. live page
// counts summed across connections). Histograms with mismatched bounds are
// summed on totals only.
func (s *Snapshot) Add(other Snapshot) {
	if s.Counters == nil {
		s.Counters = make(map[string]uint64)
		s.Gauges = make(map[string]float64)
		s.Histograms = make(map[string]HistogramSnapshot)
		s.Help = make(map[string]string)
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	for name, v := range other.Gauges {
		s.Gauges[name] += v
	}
	for name, oh := range other.Histograms {
		h, ok := s.Histograms[name]
		if !ok {
			s.Histograms[name] = HistogramSnapshot{
				Bounds: append([]uint64(nil), oh.Bounds...),
				Counts: append([]uint64(nil), oh.Counts...),
				Sum:    oh.Sum,
				Count:  oh.Count,
			}
			continue
		}
		h.Sum += oh.Sum
		h.Count += oh.Count
		if len(h.Counts) == len(oh.Counts) {
			for i := range h.Counts {
				h.Counts[i] += oh.Counts[i]
			}
		}
		s.Histograms[name] = h
	}
	for fam, help := range other.Help {
		if s.Help[fam] == "" {
			s.Help[fam] = help
		}
	}
}

// Sub returns the series-wise difference s - earlier (counters and
// histogram totals saturate at zero), the diffable-snapshot primitive for
// interval measurements.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
		Help:       s.Help,
	}
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	for name, v := range s.Counters {
		out.Counters[name] = sub(v, earlier.Counters[name])
	}
	for name, v := range s.Gauges {
		out.Gauges[name] = v - earlier.Gauges[name]
	}
	for name, h := range s.Histograms {
		eh := earlier.Histograms[name]
		nh := HistogramSnapshot{
			Bounds: append([]uint64(nil), h.Bounds...),
			Counts: append([]uint64(nil), h.Counts...),
			Sum:    sub(h.Sum, eh.Sum),
			Count:  sub(h.Count, eh.Count),
		}
		if len(eh.Counts) == len(nh.Counts) {
			for i := range nh.Counts {
				nh.Counts[i] = sub(nh.Counts[i], eh.Counts[i])
			}
		}
		out.Histograms[name] = nh
	}
	return out
}

// splitSeries splits a series name into family and its label block content
// (without braces), e.g. `a{b="c"}` -> ("a", `b="c"`).
func splitSeries(name string) (fam, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

// joinLabels merges label blocks into a canonical, sorted label string.
func joinLabels(parts ...string) string {
	var labels []string
	for _, p := range parts {
		if p != "" {
			labels = append(labels, strings.Split(p, ",")...)
		}
	}
	if len(labels) == 0 {
		return ""
	}
	sort.Strings(labels)
	return "{" + strings.Join(labels, ",") + "}"
}

// WritePrometheus renders the snapshot in Prometheus text exposition format
// (version 0.0.4). extraLabels, if non-empty, is a label block content
// (e.g. `workload="treeadd"`) merged into every series — that is how one
// file carries many workloads. Output order is deterministic.
func (s Snapshot) WritePrometheus(w io.Writer, extraLabels string) error {
	type series struct {
		fam, labels, typ string
		val              string
		hist             *HistogramSnapshot
	}
	var all []series
	for name, v := range s.Counters {
		fam, l := splitSeries(name)
		all = append(all, series{fam: fam, labels: l, typ: "counter", val: fmt.Sprintf("%d", v)})
	}
	for name, v := range s.Gauges {
		fam, l := splitSeries(name)
		all = append(all, series{fam: fam, labels: l, typ: "gauge", val: formatFloat(v)})
	}
	for name := range s.Histograms {
		h := s.Histograms[name]
		fam, l := splitSeries(name)
		all = append(all, series{fam: fam, labels: l, typ: "histogram", hist: &h})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].fam != all[j].fam {
			return all[i].fam < all[j].fam
		}
		return all[i].labels < all[j].labels
	})
	lastFam := ""
	for _, se := range all {
		if se.fam != lastFam {
			if help := s.Help[se.fam]; help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", se.fam, help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", se.fam, se.typ); err != nil {
				return err
			}
			lastFam = se.fam
		}
		if se.hist == nil {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", se.fam, joinLabels(se.labels, extraLabels), se.val); err != nil {
				return err
			}
			continue
		}
		// Histogram: cumulative buckets, then sum and count.
		cum := uint64(0)
		for i, ub := range se.hist.Bounds {
			cum += se.hist.Counts[i]
			lb := joinLabels(se.labels, extraLabels, fmt.Sprintf("le=%q", fmt.Sprintf("%d", ub)))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", se.fam, lb, cum); err != nil {
				return err
			}
		}
		lb := joinLabels(se.labels, extraLabels, `le="+Inf"`)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", se.fam, lb, se.hist.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", se.fam, joinLabels(se.labels, extraLabels), se.hist.Sum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", se.fam, joinLabels(se.labels, extraLabels), se.hist.Count); err != nil {
			return err
		}
	}
	return nil
}

// formatFloat renders gauges without exponent noise for integral values.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WriteJSON renders the snapshot as one JSON object with sorted keys
// (encoding/json sorts map keys, so the output is deterministic).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus renders the registry's current state; see
// Snapshot.WritePrometheus.
func (r *Registry) WritePrometheus(w io.Writer, extraLabels string) error {
	return r.Snapshot().WritePrometheus(w, extraLabels)
}

// WriteJSON renders the registry's current state as JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}
