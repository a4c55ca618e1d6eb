package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Category classifies an attributed cycle charge by which part of the
// detection scheme paid it. The categories mirror the paper's §4 overhead
// decomposition: the mremap aliasing call per allocation, the mprotect per
// deallocation, ordinary mmap/munmap allocator traffic, dummy syscalls
// (the PA+dummy instrument), and trap delivery.
type Category uint8

// Categories.
const (
	// CatMap is mmap/munmap page traffic (allocator growth, pool slabs,
	// recycling).
	CatMap Category = iota
	// CatRemap is the allocation-side mremap aliasing call.
	CatRemap
	// CatProtect is the deallocation-side mprotect (single or batched).
	CatProtect
	// CatDummy is the PA+dummy-syscalls instrument's no-op call.
	CatDummy
	// CatTrap is protection-fault delivery.
	CatTrap
	// CatGC is conservative-collection scan work (the §3.4 mitigation's
	// runtime cost), charged once per cycle by the kernel.
	CatGC
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatMap:
		return "map"
	case CatRemap:
		return "remap"
	case CatProtect:
		return "protect"
	case CatDummy:
		return "dummy"
	case CatTrap:
		return "trap"
	case CatGC:
		return "gc"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// UntrackedSite is the attribution bucket for charges that occur outside
// any scoped site label (process setup, native-allocator traffic in
// baseline configurations). Keeping them in the profile is what makes the
// sum-over-sites invariant exact.
const UntrackedSite = "(untracked)"

// SiteCost is one allocation site's attributed costs.
type SiteCost struct {
	Site string `json:"site"`
	// Per-category cycle totals.
	MapCycles     uint64 `json:"map_cycles"`
	RemapCycles   uint64 `json:"remap_cycles"`
	ProtectCycles uint64 `json:"protect_cycles"`
	DummyCycles   uint64 `json:"dummy_cycles"`
	TrapCycles    uint64 `json:"trap_cycles"`
	GCCycles      uint64 `json:"gc_cycles,omitempty"`
	// Event counts.
	Syscalls uint64 `json:"syscalls"`
	Traps    uint64 `json:"traps"`
	Allocs   uint64 `json:"allocs"`
	Frees    uint64 `json:"frees"`
}

// Total returns the site's total attributed cycles across all categories.
func (c *SiteCost) Total() uint64 {
	return c.MapCycles + c.RemapCycles + c.ProtectCycles + c.DummyCycles + c.TrapCycles + c.GCCycles
}

// add accumulates cycles into the category's field.
func (c *SiteCost) add(cat Category, cycles uint64) {
	switch cat {
	case CatMap:
		c.MapCycles += cycles
	case CatRemap:
		c.RemapCycles += cycles
	case CatProtect:
		c.ProtectCycles += cycles
	case CatDummy:
		c.DummyCycles += cycles
	case CatTrap:
		c.TrapCycles += cycles
	case CatGC:
		c.GCCycles += cycles
	}
}

// SiteProfile attributes detector cycle charges to allocation sites. The
// kernel records into it at every syscall and trap charge, under whatever
// site label the remapper has scoped; the profile therefore explains
// exactly where the paper's Table 2 overhead comes from, per workload.
// A process builds one only when asked (kernel.Config.SiteProfile); the
// recording methods of a nil profile do nothing.
type SiteProfile struct {
	sites map[string]*SiteCost
}

// NewSiteProfile returns an empty profile.
func NewSiteProfile() *SiteProfile {
	return &SiteProfile{sites: make(map[string]*SiteCost)}
}

func (p *SiteProfile) site(site string) *SiteCost {
	if site == "" {
		site = UntrackedSite
	}
	c, ok := p.sites[site]
	if !ok {
		c = &SiteCost{Site: site}
		p.sites[site] = c
	}
	return c
}

// AddSyscall attributes one syscall's cycles to site under cat.
func (p *SiteProfile) AddSyscall(site string, cat Category, cycles uint64) {
	if p == nil {
		return
	}
	c := p.site(site)
	c.add(cat, cycles)
	c.Syscalls++
}

// AddTrap attributes one trap delivery's cycles to site.
func (p *SiteProfile) AddTrap(site string, cycles uint64) {
	if p == nil {
		return
	}
	c := p.site(site)
	c.TrapCycles += cycles
	c.Traps++
}

// AddGC attributes one conservative-GC cycle's scan cost to site. GC work
// is neither a syscall nor a trap, so only the cycle total moves.
func (p *SiteProfile) AddGC(site string, cycles uint64) {
	if p != nil {
		p.site(site).GCCycles += cycles
	}
}

// CountAlloc and CountFree record operation counts per site (no cycles).
func (p *SiteProfile) CountAlloc(site string) {
	if p != nil {
		p.site(site).Allocs++
	}
}

func (p *SiteProfile) CountFree(site string) {
	if p != nil {
		p.site(site).Frees++
	}
}

// Merge adds other's attribution into p (cross-connection aggregation).
func (p *SiteProfile) Merge(other *SiteProfile) {
	if other == nil {
		return
	}
	for site, oc := range other.sites {
		c := p.site(site)
		c.MapCycles += oc.MapCycles
		c.RemapCycles += oc.RemapCycles
		c.ProtectCycles += oc.ProtectCycles
		c.DummyCycles += oc.DummyCycles
		c.TrapCycles += oc.TrapCycles
		c.GCCycles += oc.GCCycles
		c.Syscalls += oc.Syscalls
		c.Traps += oc.Traps
		c.Allocs += oc.Allocs
		c.Frees += oc.Frees
	}
}

// TotalCycles returns the profile-wide attributed cycle total. By
// construction this equals the kernel's total charged syscall cycles plus
// runtime-delivered trap cycles.
func (p *SiteProfile) TotalCycles() uint64 {
	var n uint64
	for _, c := range p.sites {
		n += c.Total()
	}
	return n
}

// Sites returns every site's costs, sorted by total cycles descending
// (ties by site name) — deterministic report order.
func (p *SiteProfile) Sites() []*SiteCost {
	out := make([]*SiteCost, 0, len(p.sites))
	for _, c := range p.sites {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].Total(), out[j].Total()
		if ti != tj {
			return ti > tj
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// TopTable renders the n most expensive sites as an aligned table with the
// per-category breakdown — the operator's "where is the detector's time
// going" view.
func (p *SiteProfile) TopTable(n int) string {
	sites := p.Sites()
	if n > 0 && len(sites) > n {
		sites = sites[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %10s %10s %10s %8s %8s %7s\n",
		"site", "cycles", "remap", "protect", "map", "trap", "allocs", "frees")
	for _, c := range sites {
		fmt.Fprintf(&b, "%-28s %12d %10d %10d %10d %8d %8d %7d\n",
			c.Site, c.Total(), c.RemapCycles, c.ProtectCycles, c.MapCycles,
			c.TrapCycles, c.Allocs, c.Frees)
	}
	return b.String()
}

// FlatProfile renders a pprof-style flat profile: attributed cycles per
// site with flat%% and cumulative sum%% columns. There is no call graph in
// the attribution, so flat == cum per site.
func (p *SiteProfile) FlatProfile() string {
	sites := p.Sites()
	total := p.TotalCycles()
	var b strings.Builder
	fmt.Fprintf(&b, "Showing nodes accounting for %d cycles, 100%% of %d total\n", total, total)
	fmt.Fprintf(&b, "%12s %7s %7s  %s\n", "flat", "flat%", "sum%", "site")
	var cum uint64
	for _, c := range sites {
		cum += c.Total()
		flatPct, sumPct := 0.0, 0.0
		if total > 0 {
			flatPct = 100 * float64(c.Total()) / float64(total)
			sumPct = 100 * float64(cum) / float64(total)
		}
		fmt.Fprintf(&b, "%12d %6.2f%% %6.2f%%  %s\n", c.Total(), flatPct, sumPct, c.Site)
	}
	return b.String()
}

// MarshalJSON renders the profile as a sorted array of site costs.
func (p *SiteProfile) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.Sites())
}

// UnmarshalJSON reconstructs a profile from its marshalled site-cost array,
// so exported profiles round-trip through JSON documents.
func (p *SiteProfile) UnmarshalJSON(data []byte) error {
	var costs []*SiteCost
	if err := json.Unmarshal(data, &costs); err != nil {
		return err
	}
	p.sites = make(map[string]*SiteCost, len(costs))
	for _, c := range costs {
		if c.Site == "" {
			return fmt.Errorf("obs: site cost with empty site label")
		}
		p.sites[c.Site] = c
	}
	return nil
}
