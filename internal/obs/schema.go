package obs

import (
	"cmp"
	"maps"
	"slices"
	"sync"
)

// Schema is a fixed series set: every series' name and kind, each
// histogram's bounds, and the families' help text. Schemas are interned,
// one per distinct series set, so each replay's Snapshot is a value vector
// and a pointer to a schema every replay with the same series shares.
// A schema is immutable once interned.
type Schema struct {
	counters, gauges []string     // sorted
	hists            []histSeries // sorted by name
	help             map[string]string
	width            int // values per snapshot

	mu sync.Mutex
	// into caches embed's answers: for each schema whose snapshots have
	// been added into one of this schema, where each of their values goes.
	into map[*Schema][]int32
}

// histSeries is one histogram of a schema. Its values start at off: the
// len(bounds)+1 bucket counts, then the sum, then the count.
type histSeries struct {
	name   string
	bounds []uint64
	off    int
}

// gaugeRange is the span of a snapshot's values that hold gauges.
func (sc *Schema) gaugeRange() (int, int) {
	return len(sc.counters), len(sc.counters) + len(sc.gauges)
}

// schemas is the intern table, keyed by a hash of the series set.
var schemas = struct {
	sync.Mutex
	byHash map[uint64][]*Schema
}{byHash: map[uint64][]*Schema{}}

// intern returns the one schema of the given sorted series and help text,
// creating it (from copies of its arguments) the first time it is asked.
func intern(counters, gauges []string, hists []histSeries, help map[string]string) *Schema {
	key := uint64(14695981039346656037) // FNV-1a over names and bounds
	mix := func(b byte) { key = (key ^ uint64(b)) * 1099511628211 }
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			mix(s[i])
		}
		mix(0)
	}
	for _, set := range [][]string{counters, gauges} {
		for _, name := range set {
			str(name)
		}
		mix(1)
	}
	for _, hs := range hists {
		str(hs.name)
		for _, ub := range hs.bounds {
			for k := 0; k < 64; k += 8 {
				mix(byte(ub >> k))
			}
		}
	}

	schemas.Lock()
	defer schemas.Unlock()
	for _, sc := range schemas.byHash[key] {
		if sc.equal(counters, gauges, hists, help) {
			return sc
		}
	}
	sc := &Schema{
		counters: slices.Clone(counters),
		gauges:   slices.Clone(gauges),
		hists:    make([]histSeries, len(hists)),
		help:     maps.Clone(help),
	}
	sc.width = len(counters) + len(gauges)
	for i, hs := range hists {
		sc.hists[i] = histSeries{name: hs.name, bounds: slices.Clone(hs.bounds), off: sc.width}
		sc.width += len(hs.bounds) + 3
	}
	schemas.byHash[key] = append(schemas.byHash[key], sc)
	return sc
}

func (sc *Schema) equal(counters, gauges []string, hists []histSeries, help map[string]string) bool {
	if !slices.Equal(sc.counters, counters) || !slices.Equal(sc.gauges, gauges) || len(sc.hists) != len(hists) {
		return false
	}
	for i, hs := range hists {
		if sc.hists[i].name != hs.name || !slices.Equal(sc.hists[i].bounds, hs.bounds) {
			return false
		}
	}
	return maps.Equal(sc.help, help)
}

// embed returns, for each value of a snapshot over o, the index of the
// value it adds into in a snapshot over sc (-1 for histogram buckets whose
// count differs, which add on totals only), or nil if o has a series sc
// lacks.
func (sc *Schema) embed(o *Schema) []int32 {
	sc.mu.Lock()
	dst, ok := sc.into[o]
	sc.mu.Unlock()
	if ok {
		return dst
	}
	dst = make([]int32, o.width)
	fill := func(from, to []string, fromOff, toOff int) bool {
		for i, name := range from {
			j, ok := slices.BinarySearch(to, name)
			if !ok {
				return false
			}
			dst[fromOff+i] = int32(toOff + j)
		}
		return true
	}
	fits := fill(o.counters, sc.counters, 0, 0) && fill(o.gauges, sc.gauges, len(o.counters), len(sc.counters))
	for _, oh := range o.hists {
		if !fits {
			break
		}
		i, found := slices.BinarySearchFunc(sc.hists, oh.name, byHistName)
		if !found {
			fits = false
			break
		}
		h := sc.hists[i]
		n, on := len(h.bounds)+1, len(oh.bounds)+1
		for k := 0; k < on; k++ {
			dst[oh.off+k] = -1
			if n == on {
				dst[oh.off+k] = int32(h.off + k)
			}
		}
		dst[oh.off+on] = int32(h.off + n)
		dst[oh.off+on+1] = int32(h.off + n + 1)
	}
	if !fits {
		dst = nil
	}
	sc.mu.Lock()
	if sc.into == nil {
		sc.into = map[*Schema][]int32{}
	}
	sc.into[o] = dst
	sc.mu.Unlock()
	return dst
}

// union returns the interned schema of every series of a and b. A
// histogram both have keeps a's bounds, and a family's help is a's if a
// has it.
func union(a, b *Schema) *Schema {
	merge := func(x, y []string) []string {
		out := slices.Clone(x)
		for _, name := range y {
			if _, ok := slices.BinarySearch(x, name); !ok {
				out = append(out, name)
			}
		}
		slices.Sort(out)
		return out
	}
	hists := slices.Clone(a.hists)
	for _, h := range b.hists {
		if !slices.ContainsFunc(a.hists, func(x histSeries) bool { return x.name == h.name }) {
			hists = append(hists, h)
		}
	}
	slices.SortFunc(hists, func(x, y histSeries) int { return cmp.Compare(x.name, y.name) })
	help := maps.Clone(b.help)
	if help == nil {
		help = map[string]string{}
	}
	for fam, text := range a.help {
		help[fam] = text
	}
	return intern(merge(a.counters, b.counters), merge(a.gauges, b.gauges), hists, help)
}

func byHistName(h histSeries, name string) int { return cmp.Compare(h.name, name) }
