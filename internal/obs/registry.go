package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// The metrics registry. Series identity is the full name including its
// canonical label block, e.g. `pg_syscall_cycles_total{call="mremap"}`; the
// family (the part before '{') groups series for Prometheus HELP/TYPE
// lines. The simulator is single-threaded per process, so there is no
// locking; merging across processes happens on Snapshots, which are value
// vectors over a shared, interned Schema (schema.go).

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

// Registry holds one layer's (or one process's) registered metrics. Its
// series set is fixed once a snapshot binds it to a Schema; a later
// registration unbinds it.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // keyed by family

	// schema is the interned schema of the registered series, and cs, gs
	// and hs the series in its order (nil until the first Snapshot).
	schema *Schema
	cs     []*Counter
	gs     []*Gauge
	hs     []*Histogram
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

// registered notes a new or replaced series: it keeps the family's first
// help text and unbinds the registry from its schema.
func (r *Registry) registered(name, help string) {
	r.schema = nil
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
	r.registered(name, help)
	return c
}

// CounterFunc registers a function-backed counter, read at snapshot time.
// Registering over an existing series replaces it.
func (r *Registry) CounterFunc(name, help string, f func() uint64) {
	r.counters[name] = &Counter{f: f}
	r.registered(name, help)
}

// Gauge registers (or returns the existing) value-backed gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{}
	r.gauges[name] = g
	r.registered(name, help)
	return g
}

// GaugeFunc registers a function-backed gauge, read at snapshot time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.gauges[name] = &Gauge{f: f}
	r.registered(name, help)
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
	r.registered(name, help)
	return h
}

// AttachHistogram registers an externally owned histogram (a layer that
// observes into its own Histogram hands it to the registry for exposition).
func (r *Registry) AttachHistogram(name, help string, h *Histogram) {
	r.hists[name] = h
	r.registered(name, help)
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
// series: one value per series (a histogram takes its bucket counts, sum
// and count) over the interned Schema that names them. Snapshots from
// different processes add together — that is how per-connection metrics
// aggregate into a per-workload export. The zero Snapshot is empty.
type Snapshot struct {
	schema *Schema
	// vals holds the counters, then the gauges as float64 bits, then each
	// histogram's counts, sum and count, in the schema's order.
	vals []uint64
}

// bind interns the registry's series set and lines its series up with the
// schema's order.
func (r *Registry) bind() {
	cn := sortedKeys(r.counters)
	gn := sortedKeys(r.gauges)
	hn := sortedKeys(r.hists)
	hs := make([]histSeries, len(hn))
	for i, name := range hn {
		hs[i] = histSeries{name: name, bounds: r.hists[name].bounds}
	}
	r.schema = intern(cn, gn, hs, r.help)
	r.cs, r.gs, r.hs = r.cs[:0], r.gs[:0], r.hs[:0]
	for _, name := range cn {
		r.cs = append(r.cs, r.counters[name])
	}
	for _, name := range gn {
		r.gs = append(r.gs, r.gauges[name])
	}
	for _, name := range hn {
		r.hs = append(r.hs, r.hists[name])
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Snapshot collects every registered series.
func (r *Registry) Snapshot() Snapshot {
	if r.schema == nil {
		r.bind()
	}
	sc := r.schema
	vals := make([]uint64, sc.width)
	for i, c := range r.cs {
		vals[i] = c.Value()
	}
	g := vals[len(r.cs):]
	for i, gg := range r.gs {
		g[i] = math.Float64bits(gg.Value())
	}
	for i, h := range r.hs {
		off := sc.hists[i].off
		copy(vals[off:], h.counts)
		vals[off+len(h.counts)] = h.sum
		vals[off+len(h.counts)+1] = h.count
	}
	return Snapshot{schema: sc, vals: vals}
}

// Add merges other into s (series-wise sums; gauges add, which is the right
// semantics for the additive gauges this codebase registers, e.g. live page
// counts summed across connections). Histograms with mismatched bounds are
// summed on totals only. Adding a snapshot over the same schema, or over
// one whose series s already has, allocates nothing.
func (s *Snapshot) Add(other Snapshot) {
	o := other.schema
	switch {
	case o == nil:
		return
	case s.schema == nil:
		s.schema, s.vals = o, slices.Clone(other.vals)
		return
	case s.schema == o:
		g0, g1 := o.gaugeRange()
		for i, v := range other.vals {
			if i >= g0 && i < g1 {
				s.vals[i] = addFloatBits(s.vals[i], v)
			} else {
				s.vals[i] += v
			}
		}
		return
	}
	dst := s.schema.embed(o)
	if dst == nil {
		u := union(s.schema, o)
		s.vals = s.remap(u)
		s.schema = u
		dst = u.embed(o)
	}
	g0, g1 := o.gaugeRange()
	for i, v := range other.vals {
		j := dst[i]
		switch {
		case j < 0:
		case i >= g0 && i < g1:
			s.vals[j] = addFloatBits(s.vals[j], v)
		default:
			s.vals[j] += v
		}
	}
}

func addFloatBits(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

// remap returns s's values laid out over u, a superset of s's schema.
func (s *Snapshot) remap(u *Schema) []uint64 {
	out := make([]uint64, u.width)
	for i, j := range u.embed(s.schema) {
		if j >= 0 {
			out[j] = s.vals[i]
		}
	}
	return out
}

// Sub returns the series-wise difference s - earlier (counters and
// histogram totals saturate at zero), the diffable-snapshot primitive for
// interval measurements.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	out := Snapshot{schema: s.schema, vals: slices.Clone(s.vals)}
	sc := s.schema
	if sc == nil {
		return out
	}
	sub := func(a, b uint64) uint64 {
		if b > a {
			return 0
		}
		return a - b
	}
	for i, name := range sc.counters {
		out.vals[i] = sub(out.vals[i], earlier.Counter(name))
	}
	for i, name := range sc.gauges {
		j := len(sc.counters) + i
		out.vals[j] = math.Float64bits(math.Float64frombits(out.vals[j]) - earlier.Gauge(name))
	}
	for _, h := range sc.hists {
		eh, _ := earlier.Histogram(h.name)
		n := len(h.bounds) + 1
		if len(eh.Counts) == n {
			for i := 0; i < n; i++ {
				out.vals[h.off+i] = sub(out.vals[h.off+i], eh.Counts[i])
			}
		}
		out.vals[h.off+n] = sub(out.vals[h.off+n], eh.Sum)
		out.vals[h.off+n+1] = sub(out.vals[h.off+n+1], eh.Count)
	}
	return out
}

// Counter returns the named counter's value (0 if s has no such counter).
func (s Snapshot) Counter(name string) uint64 {
	if s.schema == nil {
		return 0
	}
	if i, ok := slices.BinarySearch(s.schema.counters, name); ok {
		return s.vals[i]
	}
	return 0
}

// Gauge returns the named gauge's value (0 if s has no such gauge).
func (s Snapshot) Gauge(name string) float64 {
	if s.schema == nil {
		return 0
	}
	if i, ok := slices.BinarySearch(s.schema.gauges, name); ok {
		return math.Float64frombits(s.vals[len(s.schema.counters)+i])
	}
	return 0
}

// Histogram returns the named histogram's state, and whether s has it.
func (s Snapshot) Histogram(name string) (HistogramSnapshot, bool) {
	if s.schema == nil {
		return HistogramSnapshot{}, false
	}
	i, ok := slices.BinarySearchFunc(s.schema.hists, name, byHistName)
	if !ok {
		return HistogramSnapshot{}, false
	}
	return s.histogram(i), true
}

func (s Snapshot) histogram(i int) HistogramSnapshot {
	h := s.schema.hists[i]
	n := len(h.bounds) + 1
	return HistogramSnapshot{
		Bounds: slices.Clone(h.bounds),
		Counts: slices.Clone(s.vals[h.off : h.off+n]),
		Sum:    s.vals[h.off+n],
		Count:  s.vals[h.off+n+1],
	}
}

// Has reports whether s has a series (of any kind) named name.
func (s Snapshot) Has(name string) bool {
	if s.schema == nil {
		return false
	}
	_, c := slices.BinarySearch(s.schema.counters, name)
	_, g := slices.BinarySearch(s.schema.gauges, name)
	_, h := s.Histogram(name)
	return c || g || h
}

// snapshotMaps is a snapshot's series keyed by name: its JSON form.
type snapshotMaps struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

func (s Snapshot) maps() snapshotMaps {
	m := snapshotMaps{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if sc := s.schema; sc != nil {
		for i, name := range sc.counters {
			m.Counters[name] = s.vals[i]
		}
		for i, name := range sc.gauges {
			m.Gauges[name] = math.Float64frombits(s.vals[len(sc.counters)+i])
		}
		for i, h := range sc.hists {
			m.Histograms[h.name] = s.histogram(i)
		}
	}
	return m
}

// fromMaps builds the snapshot of m's series, with help keyed by family.
func fromMaps(m snapshotMaps, help map[string]string) (Snapshot, error) {
	cn, gn, hn := sortedKeys(m.Counters), sortedKeys(m.Gauges), sortedKeys(m.Histograms)
	hs := make([]histSeries, len(hn))
	for i, name := range hn {
		h := m.Histograms[name]
		if len(h.Counts) != len(h.Bounds)+1 {
			return Snapshot{}, fmt.Errorf("obs: histogram %s has %d counts for %d bounds", name, len(h.Counts), len(h.Bounds))
		}
		hs[i] = histSeries{name: name, bounds: h.Bounds}
	}
	sc := intern(cn, gn, hs, help)
	s := Snapshot{schema: sc, vals: make([]uint64, sc.width)}
	for i, name := range cn {
		s.vals[i] = m.Counters[name]
	}
	for i, name := range gn {
		s.vals[len(cn)+i] = math.Float64bits(m.Gauges[name])
	}
	for i, name := range hn {
		h, off := m.Histograms[name], sc.hists[i].off
		copy(s.vals[off:], h.Counts)
		s.vals[off+len(h.Counts)] = h.Sum
		s.vals[off+len(h.Counts)+1] = h.Count
	}
	return s, nil
}

// MarshalJSON encodes s as {"counters", "gauges", "histograms"} objects
// keyed by series name.
func (s Snapshot) MarshalJSON() ([]byte, error) { return json.Marshal(s.maps()) }

// UnmarshalJSON decodes MarshalJSON's form (help text is not encoded).
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var m snapshotMaps
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	out, err := fromMaps(m, nil)
	if err != nil {
		return err
	}
	*s = out
	return nil
}

// WithLabel returns s with label (e.g. `workload="treeadd"`) added to
// every series' label block.
func (s Snapshot) WithLabel(label string) Snapshot {
	m := s.maps()
	out := snapshotMaps{
		Counters:   make(map[string]uint64, len(m.Counters)),
		Gauges:     make(map[string]float64, len(m.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(m.Histograms)),
	}
	for name, v := range m.Counters {
		out.Counters[addLabel(name, label)] = v
	}
	for name, v := range m.Gauges {
		out.Gauges[addLabel(name, label)] = v
	}
	for name, h := range m.Histograms {
		out.Histograms[addLabel(name, label)] = h
	}
	var help map[string]string
	if s.schema != nil {
		help = s.schema.help
	}
	ls, _ := fromMaps(out, help)
	return ls
}

// addLabel inserts one label into a series name's label block.
func addLabel(series, label string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i+1] + label + "," + series[i+1:]
	}
	return series + "{" + label + "}"
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
	sc := s.schema
	if sc == nil {
		sc = &Schema{}
	}
	for i, name := range sc.counters {
		fam, l := splitSeries(name)
		all = append(all, series{fam: fam, labels: l, typ: "counter", val: fmt.Sprintf("%d", s.vals[i])})
	}
	for i, name := range sc.gauges {
		fam, l := splitSeries(name)
		all = append(all, series{fam: fam, labels: l, typ: "gauge", val: formatFloat(math.Float64frombits(s.vals[len(sc.counters)+i]))})
	}
	for i, h := range sc.hists {
		hs := s.histogram(i)
		fam, l := splitSeries(h.name)
		all = append(all, series{fam: fam, labels: l, typ: "histogram", hist: &hs})
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
			if help := sc.help[se.fam]; help != "" {
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

// WriteJSON renders the snapshot as one indented JSON object with sorted
// keys (MarshalJSON's maps; encoding/json sorts map keys, so the output is
// deterministic).
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
