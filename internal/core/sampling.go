package core

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
)

// The sampled always-on detection tier (GWP-ASan mode). Full shadow-page
// protection guards every allocation; a production fleet instead guards
// 1-in-N allocation *sites*, selected by a seeded site hash so a replayed
// trace samples the same sites bit-for-bit on every machine. Unsampled
// allocations take the canonical-address path (no shadow pages, no remap
// header — exactly the cost the native allocator pays), so the per-request
// overhead scales with the sampling rate while sampled sites keep the full
// detection guarantee.
//
// Two refinements production samplers add on top of plain 1-in-N:
//
//   - per-site adaptive rates: a site whose sampled objects never trap cools
//     down (its within-site sampling interval doubles after every Cool
//     trap-free sampled frees), while a trap on a site resets it to
//     every-allocation sampling — detection effort concentrates where bugs
//     were seen;
//   - a bounded quarantine: the last Quarantine sampled freed objects are
//     exempt from the §3.4 reuse policies' recycling, so a late stale use
//     still lands on PROT_NONE pages even under aggressive reclamation.

// maxSampleInterval caps the per-site adaptive interval so a cooled site is
// never effectively unsampled forever.
const maxSampleInterval = 1 << 16

// SamplingSpec configures the sampled detection tier.
type SamplingSpec struct {
	// Rate selects 1-in-Rate allocation sites for guarding, by seeded site
	// hash. 1 guards every site (bit-identical to full protection); 0 guards
	// none (the clean unguarded baseline through the identical code path).
	Rate uint64
	// Seed perturbs the site-selection hash so different fleets sample
	// different site subsets while each replays deterministically.
	Seed uint64
	// Quarantine bounds the FIFO of sampled freed objects exempt from
	// shadow-page recycling (0 = no quarantine).
	Quarantine uint64
	// Cool is the number of consecutive trap-free sampled frees after which
	// an eligible site's sampling interval doubles (0 = adaptation off).
	Cool uint64
}

// String renders the spec in the canonical minimal form ParseSamplingSpec
// accepts.
func (s SamplingSpec) String() string {
	out := fmt.Sprintf("rate=%d", s.Rate)
	if s.Seed != 0 {
		out += fmt.Sprintf(",seed=%d", s.Seed)
	}
	if s.Quarantine != 0 {
		out += fmt.Sprintf(",quarantine=%d", s.Quarantine)
	}
	if s.Cool != 0 {
		out += fmt.Sprintf(",cool=%d", s.Cool)
	}
	return out
}

// ParseSamplingSpec parses "rate=N[,seed=S][,quarantine=Q][,cool=C]".
func ParseSamplingSpec(spec string) (SamplingSpec, error) {
	var out SamplingSpec
	rateSeen := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return out, fmt.Errorf("core: sampling spec %q: want key=value, got %q", spec, part)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return out, fmt.Errorf("core: sampling spec %q: bad %s value: %v", spec, k, err)
		}
		switch strings.TrimSpace(k) {
		case "rate":
			out.Rate = n
			rateSeen = true
		case "seed":
			out.Seed = n
		case "quarantine":
			out.Quarantine = n
		case "cool":
			out.Cool = n
		default:
			return out, fmt.Errorf("core: sampling spec %q: unknown key %q (want rate, seed, quarantine, cool)", spec, k)
		}
	}
	if !rateSeen {
		return out, fmt.Errorf("core: sampling spec %q: missing required rate=N", spec)
	}
	return out, nil
}

// siteState is one eligible allocation site's adaptive sampling state.
type siteState struct {
	// eligible is the seeded site-hash selection verdict, fixed per site.
	eligible bool
	// interval is the current within-site sampling interval: 1 = every
	// allocation, doubling as the site cools.
	interval uint64
	// skip counts allocations remaining until the next sampled one.
	skip uint64
	// coolRun counts consecutive trap-free sampled frees toward the next
	// interval doubling.
	coolRun uint64
}

// sampler is the per-remapper sampling engine.
type sampler struct {
	spec  SamplingSpec
	sites map[string]*siteState
	// quarantine is the bounded FIFO of sampled freed objects currently
	// exempt from recycling.
	quarantine []*Object
}

// QuarantineLen returns the number of objects currently quarantined.
func (r *Remapper) QuarantineLen() int {
	if r.sampling == nil {
		return 0
	}
	return len(r.sampling.quarantine)
}

// eligibleSite is the deterministic seeded site selection: an FNV-1a hash of
// the site label, finalized splitmix64-style with the seed folded in, taken
// modulo the rate. The same (site, seed, rate) triple selects identically on
// every machine — that is what keeps sampled replays byte-reproducible.
func (s *sampler) eligibleSite(site string) bool {
	if s.spec.Rate == 0 {
		return false
	}
	if s.spec.Rate == 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(site))
	x := h.Sum64() ^ (s.spec.Seed * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x%s.spec.Rate == 0
}

// state returns (creating if needed) the site's sampling state.
func (s *sampler) state(site string) *siteState {
	st := s.sites[site]
	if st == nil {
		st = &siteState{eligible: s.eligibleSite(site), interval: 1}
		s.sites[site] = st
	}
	return st
}

// shouldSample decides whether the next allocation at site gets shadow-page
// protection, advancing the site's within-site countdown. Pure Go
// bookkeeping: no simulated cycles are charged, so a rate-1 run's simulated
// numbers are identical to an unsampled run's.
func (s *sampler) shouldSample(site string) bool {
	st := s.state(site)
	if !st.eligible {
		return false
	}
	if st.skip > 0 {
		st.skip--
		return false
	}
	st.skip = st.interval - 1
	return true
}

// onSampledFree records one trap-free sampled free at the object's site,
// cooling the site (doubling its interval) after every spec.Cool such frees.
// Reports whether the site cooled.
func (s *sampler) onSampledFree(obj *Object) bool {
	if s.spec.Cool == 0 {
		return false
	}
	st := s.sites[obj.AllocSite]
	if st == nil || !st.eligible {
		return false
	}
	st.coolRun++
	if st.coolRun < s.spec.Cool {
		return false
	}
	st.coolRun = 0
	if st.interval < maxSampleInterval {
		st.interval *= 2
	}
	return true
}

// onTrap heats a site after a detected dangling use of one of its objects:
// the interval resets to every-allocation sampling. Reports whether the site
// actually changed (it was cooled or mid-cool-run).
func (s *sampler) onTrap(site string) bool {
	st := s.sites[site]
	if st == nil || !st.eligible {
		return false
	}
	heated := st.interval > 1 || st.coolRun > 0 || st.skip > 0
	st.interval = 1
	st.skip = 0
	st.coolRun = 0
	return heated
}

// quarantineAdd pushes a sampled freed object into the bounded quarantine
// FIFO, evicting the oldest entry past the bound. Quarantined objects are
// exempt from reclaimFreed and conservative-GC recycling until evicted, so
// their PROT_NONE pages keep trapping late stale uses.
func (r *Remapper) quarantineAdd(obj *Object) {
	q := r.sampling.spec.Quarantine
	if q == 0 {
		return
	}
	obj.Quarantined = true
	r.sampling.quarantine = append(r.sampling.quarantine, obj)
	for uint64(len(r.sampling.quarantine)) > q {
		old := r.sampling.quarantine[0]
		r.sampling.quarantine = r.sampling.quarantine[1:]
		if old.Quarantined {
			old.Quarantined = false
			r.stats.SamplingQuarantineEvictions++
		}
	}
}
