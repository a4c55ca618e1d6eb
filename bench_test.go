// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`):
//
//   - BenchmarkTable1 — runtime overheads for utilities and servers
//     (Ratio 1 per row reported as a custom metric);
//   - BenchmarkTable2 — the Valgrind comparison;
//   - BenchmarkTable3 — the Olden benchmarks;
//   - BenchmarkVAStudy — the §4.3 per-connection address-space study and
//     the §3.4 exhaustion bound;
//   - BenchmarkRunningExample — Figures 1/2 (detection of p->next->val);
//
// plus the ablations called out in DESIGN.md §5:
//
//   - BenchmarkAblationPAReuse — Insight 2 on/off (virtual page consumption);
//   - BenchmarkAblationTLB — overhead vs TLB size (the paper's proposed
//     architectural mitigation);
//   - BenchmarkAblationSyscallCost — overhead vs syscall latency (the
//     paper's proposed OS mitigation);
//   - BenchmarkAblationReusePolicy — the §3.4 reuse policies;
//   - BenchmarkEFenceContrast and BenchmarkCapabilityContrast — the §5
//     related-work comparisons.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/minic/driver"
	"repro/internal/minic/interp"
	"repro/internal/runtimes"
	"repro/internal/sim/cost"
	"repro/internal/sim/kernel"
	"repro/internal/sim/tlb"
	"repro/internal/workload"
	"repro/pageguard"
)

// BenchmarkTable1 regenerates Table 1 once per iteration and reports each
// row's Ratio 1 (ours / LLVM base).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := experiment.GenTable1(experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t1.Rows {
			b.ReportMetric(r.Ratio1, "ratio1:"+r.Name)
		}
	}
}

// BenchmarkTable1Parallel regenerates Table 1 with the harness fanning
// (workload, configuration) cells across one worker per CPU — the pgbench -j
// default. The simulated numbers are identical to BenchmarkTable1 (the -j
// parity tests prove it); only the wall clock differs, by roughly the core
// count on multi-core hosts.
func BenchmarkTable1Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1, err := experiment.GenTable1(experiment.Options{Parallelism: 0})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t1.Rows {
			b.ReportMetric(r.Ratio1, "ratio1:"+r.Name)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 and reports the Valgrind slowdowns.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2, err := experiment.GenTable2(experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t2.Rows {
			b.ReportMetric(r.ValgrindSlowdown, "valgrind:"+r.Name)
		}
	}
}

// BenchmarkTable3 regenerates Table 3 and reports each Olden Ratio 3.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t3, err := experiment.GenTable3(experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range t3.Rows {
			b.ReportMetric(r.Ratio3, "ratio3:"+r.Name)
		}
	}
}

// BenchmarkVAStudy regenerates the §4.3 study and reports per-connection
// page consumption per server.
func BenchmarkVAStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiment.GenVAStudy(experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range s.Rows {
			b.ReportMetric(r.PagesPerConn, "pages/conn:"+r.Name)
		}
		b.ReportMetric(s.Exhaustion.Hours(), "exhaustion-hours")
	}
}

// BenchmarkRunningExample measures Figures 1/2: the running example under
// detection (which traps) and reports the detection's cycle count.
func BenchmarkRunningExample(b *testing.B) {
	w, err := workload.ByName("running-example")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m, err := experiment.Run(w, experiment.Ours, experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if m.Err == nil {
			b.Fatal("running example's dangling use not detected")
		}
		b.ReportMetric(float64(m.Cycles), "cycles")
	}
}

// BenchmarkAblationPAReuse compares virtual-page consumption with and
// without Insight 2 on the phase-structured ftpd server.
func BenchmarkAblationPAReuse(b *testing.B) {
	w, err := workload.ByName("ftpd")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		with, err := experiment.Run(w, experiment.Ours, experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		without, err := experiment.Run(w, experiment.OursNoPA, experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(with.ReservedPages)/float64(len(with.PerConnPages)), "pages/conn:with-pa")
		b.ReportMetric(float64(without.ReservedPages)/float64(len(without.PerConnPages)), "pages/conn:no-pa")
	}
}

// BenchmarkAblationTLB sweeps L1 TLB sizes on treeadd, the paper's proposed
// architectural mitigation for the TLB component of the overhead.
func BenchmarkAblationTLB(b *testing.B) {
	w, err := workload.ByName("treeadd")
	if err != nil {
		b.Fatal(err)
	}
	for _, entries := range []int{16, 64, 256, 1024} {
		b.Run(sizeName("l1", entries), func(b *testing.B) {
			cfg := kernel.DefaultConfig()
			cfg.MMU.TLB1 = tlb.Config{Entries: entries, Ways: 4}
			opts := experiment.Options{Kernel: &cfg}
			for i := 0; i < b.N; i++ {
				base, err := experiment.Run(w, experiment.LLVMBase, opts)
				if err != nil {
					b.Fatal(err)
				}
				ours, err := experiment.Run(w, experiment.Ours, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(experiment.Ratio(ours, base), "ratio")
			}
		})
	}
}

// BenchmarkAblationSyscallCost sweeps the syscall price on treeadd, the
// paper's proposed OS mitigation for the syscall component.
func BenchmarkAblationSyscallCost(b *testing.B) {
	w, err := workload.ByName("treeadd")
	if err != nil {
		b.Fatal(err)
	}
	for _, sc := range []uint64{100, 400, 1200, 4800} {
		b.Run(sizeName("syscall", int(sc)), func(b *testing.B) {
			cfg := kernel.DefaultConfig()
			cfg.Model = cost.Default().WithSyscall(sc)
			for i := 0; i < b.N; i++ {
				// The base model must match so the ratio
				// isolates the syscall component.
				base, err := runWithModel(w, false, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ours, err := runWithModel(w, true, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ours)/float64(base), "ratio")
			}
		})
	}
}

// runWithModel runs a workload under a custom kernel config, with or
// without the full detection stack, returning cycles.
func runWithModel(w workload.Workload, detect bool, cfg kernel.Config) (uint64, error) {
	var prog, err = driver.Compile(w.Source)
	if detect {
		prog, _, err = driver.CompileWithPools(w.Source)
	}
	if err != nil {
		return 0, err
	}
	sys := kernel.NewSystem(cfg)
	mk := func(p *kernel.Process) interp.Runtime {
		if detect {
			return runtimes.NewShadow(p, core.Config{})
		}
		return runtimes.NewNative(p)
	}
	res, err := driver.Run(prog, sys, cfg, mk, interp.Config{})
	if err != nil {
		return 0, err
	}
	if res.Err != nil {
		return 0, res.Err
	}
	return res.Proc.Meter().Cycles(), nil
}

// BenchmarkAblationReusePolicy compares the §3.4 reuse policies' virtual
// page consumption on a long-lived churn workload.
func BenchmarkAblationReusePolicy(b *testing.B) {
	const churn = `
void main() {
  int i;
  for (i = 0; i < 2000; i = i + 1) {
    char *p = malloc(24);
    p[0] = 'x';
    free(p);
  }
  print_int(1);
}
`
	policies := map[string]core.ReusePolicy{
		"never":    core.NeverReuse(),
		"interval": {Kind: core.PolicyInterval, Interval: 256},
		"gc":       {Kind: core.PolicyGC, Interval: 256},
	}
	for name, policy := range policies {
		policy := policy
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog, err := pageguardCompile(churn)
				if err != nil {
					b.Fatal(err)
				}
				m := pageguard.NewMachine(pageguard.WithReusePolicy(policy))
				res, err := prog.Run(m, pageguard.ModeDetectNoPA)
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				b.ReportMetric(float64(res.VirtualPages), "vpages")
			}
		})
	}
}

func pageguardCompile(src string) (*pageguard.Program, error) {
	return pageguard.Compile(src)
}

// BenchmarkAblationBatchedFree measures the §6 OS-enhancement study: the
// health benchmark's overhead as deallocation protection is batched through
// a hypothetical multi-range mprotect (detection window = batch size).
func BenchmarkAblationBatchedFree(b *testing.B) {
	w, err := workload.ByName("health")
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{0, 8, 64} {
		batch := batch
		b.Run(sizeName("batch", batch), func(b *testing.B) {
			cfg := kernel.DefaultConfig()
			for i := 0; i < b.N; i++ {
				base, err := runWithModel(w, false, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ours, err := runBatched(w, cfg, batch)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ours)/float64(base), "ratio")
			}
		})
	}
}

// runBatched runs a workload under the shadow scheme with batched
// deallocation protection.
func runBatched(w workload.Workload, cfg kernel.Config, batch int) (uint64, error) {
	prog, _, err := driver.CompileWithPools(w.Source)
	if err != nil {
		return 0, err
	}
	sys := kernel.NewSystem(cfg)
	mk := func(p *kernel.Process) interp.Runtime {
		rt := runtimes.NewShadow(p, core.Config{})
		rt.Remapper().EnableBatchedProtect(batch)
		return rt
	}
	res, err := driver.Run(prog, sys, cfg, mk, interp.Config{})
	if err != nil {
		return 0, err
	}
	if res.Err != nil {
		return 0, res.Err
	}
	return res.Proc.Meter().Cycles(), nil
}

// BenchmarkEFenceContrast measures the §5.3 contrast: physical frame blowup
// of Electric Fence vs the shadow scheme on enscript's allocation pattern.
func BenchmarkEFenceContrast(b *testing.B) {
	w, err := workload.ByName("enscript")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ef, err := experiment.Run(w, experiment.EFence, experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ours, err := experiment.Run(w, experiment.Ours, experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ef.PeakFrames), "frames:efence")
		b.ReportMetric(float64(ours.PeakFrames), "frames:ours")
	}
}

// BenchmarkCapabilityContrast measures the §5.2 contrast: the capability
// baseline's per-access software cost on an Olden benchmark where the
// paper's scheme is at its worst.
func BenchmarkCapabilityContrast(b *testing.B) {
	w, err := workload.ByName("treeadd")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		base, err := experiment.Run(w, experiment.LLVMBase, experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		capab, err := experiment.Run(w, experiment.Capability, experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ours, err := experiment.Run(w, experiment.Ours, experiment.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiment.Ratio(capab, base), "ratio:capability")
		b.ReportMetric(experiment.Ratio(ours, base), "ratio:ours")
	}
}

func sizeName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "-0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + "-" + string(buf[i:])
}
