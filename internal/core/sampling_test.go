package core

import (
	"errors"
	"testing"

	"repro/internal/sim/vm"
)

func TestParseSamplingSpec(t *testing.T) {
	cases := []struct {
		spec string
		want SamplingSpec
		err  bool
	}{
		{spec: "rate=1", want: SamplingSpec{Rate: 1}},
		{spec: "rate=0", want: SamplingSpec{Rate: 0}},
		{spec: "rate=64,seed=7", want: SamplingSpec{Rate: 64, Seed: 7}},
		{spec: "rate=16,quarantine=8,cool=4", want: SamplingSpec{Rate: 16, Quarantine: 8, Cool: 4}},
		{spec: " rate = 4 , seed = 2 ", want: SamplingSpec{Rate: 4, Seed: 2}},
		{spec: "", err: true},              // rate is required
		{spec: "seed=3", err: true},        // rate is required
		{spec: "rate", err: true},          // no value
		{spec: "rate=x", err: true},        // bad number
		{spec: "rate=1,zone=2", err: true}, // unknown key
	}
	for _, c := range cases {
		got, err := ParseSamplingSpec(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("ParseSamplingSpec(%q): want error, got %+v", c.spec, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSamplingSpec(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseSamplingSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
		// The canonical rendering must parse back to the same spec.
		back, err := ParseSamplingSpec(got.String())
		if err != nil || back != got {
			t.Errorf("roundtrip %q -> %q -> %+v (%v)", c.spec, got.String(), back, err)
		}
	}
}

// FuzzParseSamplingSpec checks that the rendering of any spec
// ParseSamplingSpec accepts is canonical: it parses back, and renders to
// itself.
func FuzzParseSamplingSpec(f *testing.F) {
	for _, spec := range []string{
		"rate=1", "rate=0", "rate=64,seed=7", "rate=16,quarantine=8,cool=4",
		" rate = 4 , seed = 2 ", "seed=3", "rate=1,zone=2",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSamplingSpec(spec)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := ParseSamplingSpec(canon)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, canon, err)
		}
		if again := s2.String(); again != canon {
			t.Fatalf("%q renders as %q, which renders as %q", spec, canon, again)
		}
	})
}

func TestSamplingSiteSelectionDeterministic(t *testing.T) {
	s := &sampler{spec: SamplingSpec{Rate: 4, Seed: 11}}
	sites := []string{"a.c:1", "a.c:2", "b.c:9", "lib.c:400", "main.c:77"}
	first := make(map[string]bool)
	for _, site := range sites {
		first[site] = s.eligibleSite(site)
	}
	for i := 0; i < 3; i++ {
		for _, site := range sites {
			if got := s.eligibleSite(site); got != first[site] {
				t.Fatalf("eligibleSite(%q) flapped: %v then %v", site, first[site], got)
			}
		}
	}
	// A different seed must select a different subset eventually, and rate=1
	// and rate=0 are the two degenerate verdicts.
	one := &sampler{spec: SamplingSpec{Rate: 1}}
	zero := &sampler{spec: SamplingSpec{Rate: 0}}
	for _, site := range sites {
		if !one.eligibleSite(site) {
			t.Fatalf("rate=1 must select every site, rejected %q", site)
		}
		if zero.eligibleSite(site) {
			t.Fatalf("rate=0 must select no site, selected %q", site)
		}
	}
}

func TestSamplingSelectionFraction(t *testing.T) {
	// Over many synthetic sites the selected fraction must be near 1/Rate —
	// this pins the hash quality, not an exact count.
	s := &sampler{spec: SamplingSpec{Rate: 8, Seed: 3}}
	n, hits := 4096, 0
	for i := 0; i < n; i++ {
		if s.eligibleSite(sampleSiteLabel(i)) {
			hits++
		}
	}
	want := n / 8
	if hits < want/2 || hits > want*2 {
		t.Fatalf("rate=8 selected %d of %d sites, want near %d", hits, n, want)
	}
}

func sampleSiteLabel(i int) string {
	return "synthetic.c:" + string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + ":" + string(rune('A'+(i/260)%26))
}

func TestSamplingRateOneMatchesFullGuarding(t *testing.T) {
	full := newFixture(t, Config{})
	sampled := newFixture(t, Config{Sampling: &SamplingSpec{Rate: 1}})

	run := func(f *fixture) (Stats, uint64) {
		var addrs []uint64
		for i := 0; i < 8; i++ {
			a := f.alloc(t, 48)
			addrs = append(addrs, uint64(a))
			if i%2 == 0 {
				f.free(t, a)
			}
		}
		stats := f.rm.Stats()
		stats.SampledAllocs = 0 // the one field allowed to differ
		return stats, f.proc.Meter().Cycles()
	}
	fs, fc := run(full)
	ss, sc := run(sampled)
	if fs != ss {
		t.Fatalf("rate=1 stats diverge from full guarding:\nfull    %+v\nsampled %+v", fs, ss)
	}
	if fc != sc {
		t.Fatalf("rate=1 cycles %d != full-guarding cycles %d", sc, fc)
	}
}

func TestUnsampledAllocationPath(t *testing.T) {
	f := newFixture(t, Config{Sampling: &SamplingSpec{Rate: 0}}) // guard nothing

	a, err := f.rm.Alloc(HeapAllocator{f.heap}, nil, 64, "u.c:1")
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if f.rm.ObjectAt(a) != nil {
		t.Fatalf("unsampled allocation has an object record — it got shadow pages")
	}
	if err := f.write(a, 42); err != nil {
		t.Fatalf("write to unsampled allocation: %v", err)
	}
	if err := f.rm.Free(HeapAllocator{f.heap}, a, "u.c:2"); err != nil {
		t.Fatalf("Free: %v", err)
	}
	st := f.rm.Stats()
	if st.UnsampledAllocs != 1 || st.UnsampledFrees != 1 || st.Allocs != 0 || st.Frees != 0 {
		t.Fatalf("unsampled counters wrong: %+v", st)
	}
	// A stale use of the unsampled object must NOT be detected as dangling —
	// that is exactly the coverage the tier trades away.
	if err := f.read(a); err != nil {
		var de *DanglingError
		if errors.As(err, &de) {
			t.Fatalf("stale use of unsampled object was detected: %v", err)
		}
	}
	// A double free of the unsampled address is no longer recognizable
	// either; it must surface as a plain free error, not a DanglingError.
	err = f.rm.Free(HeapAllocator{f.heap}, a, "u.c:3")
	var de *DanglingError
	if errors.As(err, &de) {
		t.Fatalf("unsampled double free produced a DanglingError: %v", err)
	}
}

func TestSamplingAdaptiveCoolAndHeat(t *testing.T) {
	f := newFixture(t, Config{Sampling: &SamplingSpec{Rate: 1, Cool: 2}})
	site := "hot.c:1"

	// Alloc/free pairs at one site. The second trap-free sampled free cools
	// the site (interval 1 -> 2), after which the within-site countdown makes
	// the fourth allocation unsampled.
	for i := 0; i < 4; i++ {
		a, err := f.rm.Alloc(HeapAllocator{f.heap}, nil, 32, site)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if err := f.rm.Free(HeapAllocator{f.heap}, a, "hot.c:2"); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
	st := f.rm.Stats()
	if st.SamplingSiteCools != 1 {
		t.Fatalf("SamplingSiteCools = %d, want 1", st.SamplingSiteCools)
	}
	if st.UnsampledAllocs != 1 {
		t.Fatalf("UnsampledAllocs = %d, want 1 (the post-cooling skipped alloc)", st.UnsampledAllocs)
	}
	state := f.rm.sampling.sites[site]
	if state.interval != 2 {
		t.Fatalf("cooled interval = %d, want 2", state.interval)
	}

	// The cooled site samples the next allocation (the skip countdown was
	// consumed by the last sampled one); a trap on it heats the site back up.
	a, err := f.rm.Alloc(HeapAllocator{f.heap}, nil, 32, site)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if f.rm.ObjectAt(a) == nil {
		t.Fatalf("first alloc after cooling should be sampled")
	}
	if err := f.rm.Free(HeapAllocator{f.heap}, a, "hot.c:2"); err != nil {
		t.Fatalf("Free: %v", err)
	}
	var de *DanglingError
	if err := f.read(a); !errors.As(err, &de) {
		t.Fatalf("sampled stale read not detected: %v", err)
	}
	st = f.rm.Stats()
	if st.SamplingSiteHeats != 1 {
		t.Fatalf("SamplingSiteHeats = %d, want 1", st.SamplingSiteHeats)
	}
	if got := f.rm.sampling.sites[site].interval; got != 1 {
		t.Fatalf("heated interval = %d, want 1", got)
	}
}

func TestSamplingQuarantineBoundsAndReclaimExemption(t *testing.T) {
	f := newFixture(t, Config{
		Policy:   ReusePolicy{Kind: PolicyInterval, Interval: 1 << 30},
		Sampling: &SamplingSpec{Rate: 1, Quarantine: 2},
	})

	var addrs []uint64
	var objs []*Object
	for i := 0; i < 3; i++ {
		a := f.alloc(t, 32)
		addrs = append(addrs, uint64(a))
		objs = append(objs, f.rm.ObjectAt(a))
		f.free(t, a)
	}
	if got := f.rm.QuarantineLen(); got != 2 {
		t.Fatalf("QuarantineLen = %d, want 2", got)
	}
	st := f.rm.Stats()
	if st.SamplingQuarantineEvictions != 1 {
		t.Fatalf("SamplingQuarantineEvictions = %d, want 1", st.SamplingQuarantineEvictions)
	}
	if objs[0].Quarantined {
		t.Fatalf("oldest object still flagged quarantined after eviction")
	}
	if !objs[1].Quarantined || !objs[2].Quarantined {
		t.Fatalf("newest two objects should be quarantined: %v %v", objs[1].Quarantined, objs[2].Quarantined)
	}

	// A reclaim recycles only the evicted object; the quarantined two keep
	// their PROT_NONE pages and stay on the freed list for a later pass.
	if pages := f.rm.reclaimFreed(); pages != objs[0].ShadowRun.Pages {
		t.Fatalf("reclaimFreed recycled %d pages, want %d (evicted object only)", pages, objs[0].ShadowRun.Pages)
	}
	if objs[1].State != StateFreed || objs[2].State != StateFreed {
		t.Fatalf("quarantined objects recycled: %v %v", objs[1].State, objs[2].State)
	}
	// Their stale uses must still trap.
	err := f.read(vm.Addr(addrs[1]))
	var de *DanglingError
	if !errors.As(err, &de) {
		t.Fatalf("stale read of quarantined object not detected: %v", err)
	}
	if err := f.rm.HealthCheck(); err != nil {
		t.Fatalf("HealthCheck after quarantine+reclaim: %v", err)
	}
}
