// Command pgbench regenerates the paper's evaluation: Tables 1-3, the §4.3
// address-space study, the §3.4 exhaustion bound, and the production-
// hardening studies (chaos soak, trap containment).
//
// Usage:
//
//	pgbench                     # everything
//	pgbench -table 1            # one table (1, 2, or 3)
//	pgbench -study vaspace      # the §4.3/§3.4 studies
//	pgbench -study chaos        # soak workloads + adversarial corpus under fault schedules
//	pgbench -study exhaustion   # the §3.4 exhaustion ladder over the cliff workloads
//	pgbench -study containment  # one trapped connection, servers keep serving
//	pgbench -probe treeadd      # raw counters for one workload across configs
//	pgbench -faults SPEC ...    # inject a kernel fault schedule into runs
//	pgbench -metrics out.json   # export metric snapshots + cycle attribution
//	pgbench -bench out.json     # machine-readable per-workload results
//	pgbench -exhaustbench f.json   # machine-readable exhaustion ladder + corpus
//	pgbench -samplebench f.json    # machine-readable sampled-tier study
//	pgbench -check-bench a.json,b.json  # validate artifacts, one per schema
//
// Host wall-clock cost is not measured here: perfbench (BENCHMARK.json)
// measures the served and table-regeneration workloads end to end.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliff"
	"repro/internal/experiment"
	"repro/internal/workload"
)

// harnessStart anchors the pg_uptime_seconds series in the -metrics export.
var harnessStart = time.Now()

// defaultParallelism is the -j default: the PGBENCH_PARALLEL environment
// variable if set, else 0 (one worker per CPU).
func defaultParallelism() int {
	if v := os.Getenv("PGBENCH_PARALLEL"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			return n
		}
	}
	return 0
}

func main() {
	table := flag.Int("table", 0, "regenerate one table (1, 2, or 3); 0 = all")
	study := flag.String("study", "", `regenerate a study ("vaspace", "memory", "chaos", "exhaustion", or "containment")`)
	probe := flag.String("probe", "", "print raw counters for one workload")
	faults := flag.String("faults", "", "kernel fault schedule for -probe/-table runs")
	metrics := flag.String("metrics", "", "write metric snapshots + cycle attribution (JSON and .prom) to this path")
	bench := flag.String("bench", "", "write machine-readable per-workload results (JSON) to this path")
	checkBenchPath := flag.String("check-bench", "",
		"validate benchmark artifacts (comma-separated and/or positional paths, one per schema) and exit")
	exhaustbench := flag.String("exhaustbench", "", "write the machine-readable exhaustion ladder + corpus (JSON) to this path")
	samplebench := flag.String("samplebench", "", "run the sampled-tier study (detection probability vs rate vs overhead) and write its JSON report to this path")
	parallel := flag.Int("j", defaultParallelism(),
		"worker goroutines for table/study cells (0 = one per CPU, 1 = sequential; default $PGBENCH_PARALLEL)")
	list := flag.Bool("list", false, "list the workloads and exit")
	flag.Parse()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-16s %-8s %s\n", w.Name, w.Category, w.Description)
		}
		return
	}
	if *checkBenchPath != "" {
		paths := strings.Split(*checkBenchPath, ",")
		paths = append(paths, flag.Args()...)
		if err := checkBench(paths); err != nil {
			fmt.Fprintln(os.Stderr, "pgbench:", err)
			os.Exit(1)
		}
		return
	}
	if *samplebench != "" {
		if err := runSampleBench(*samplebench); err != nil {
			fmt.Fprintln(os.Stderr, "pgbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*table, *study, *probe, *faults, *metrics, *bench, *exhaustbench, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "pgbench:", err)
		os.Exit(1)
	}
}

func run(table int, study, probe, faults, metrics, bench, exhaustbench string, parallel int) error {
	opts := experiment.Options{Faults: faults, Parallelism: parallel}
	if exhaustbench != "" {
		return runExhaustBench(exhaustbench)
	}
	if metrics != "" {
		return runMetrics(metrics, opts)
	}
	if bench != "" {
		return runBench(bench, opts)
	}
	if probe != "" {
		return runProbe(probe, opts)
	}
	if study != "" {
		switch study {
		case "vaspace":
			return printVAStudy(opts)
		case "memory":
			return printMemStudy(opts)
		case "chaos":
			return printChaosStudy(opts)
		case "exhaustion":
			return printExhaustionStudy()
		case "containment":
			return printContainmentStudy(opts)
		default:
			return fmt.Errorf("unknown study %q (want vaspace, memory, chaos, exhaustion, or containment)", study)
		}
	}
	all := table == 0
	if all || table == 1 {
		t1, err := experiment.GenTable1(opts)
		if err != nil {
			return err
		}
		fmt.Println(t1)
	}
	if all || table == 2 {
		t2, err := experiment.GenTable2(opts)
		if err != nil {
			return err
		}
		fmt.Println(t2)
	}
	if all || table == 3 {
		t3, err := experiment.GenTable3(opts)
		if err != nil {
			return err
		}
		fmt.Println(t3)
	}
	if all {
		if err := printVAStudy(opts); err != nil {
			return err
		}
		if err := printMemStudy(opts); err != nil {
			return err
		}
		if err := printChaosStudy(opts); err != nil {
			return err
		}
		return printContainmentStudy(opts)
	}
	return nil
}

func printMemStudy(opts experiment.Options) error {
	s, err := experiment.GenMemStudy(opts)
	if err != nil {
		return err
	}
	fmt.Println(s)
	return nil
}

func printVAStudy(opts experiment.Options) error {
	s, err := experiment.GenVAStudy(opts)
	if err != nil {
		return err
	}
	fmt.Println(s)
	return nil
}

func printChaosStudy(opts experiment.Options) error {
	// The soak supplies its own schedule matrix; a -faults override would
	// defeat the inert-schedule parity check.
	opts.Faults = ""
	s, err := experiment.GenChaosStudy(opts, nil)
	if err != nil {
		return err
	}
	fmt.Println(s)
	// The adversarial corpus soaks under the same schedule matrix: fault
	// injection composed with exhaustion pressure, double-free storms, and
	// guard-straddling objects.
	cs, err := cliff.GenCorpusChaos()
	if err != nil {
		return err
	}
	fmt.Println(cs)
	return nil
}

func printContainmentStudy(opts experiment.Options) error {
	s, err := experiment.GenContainmentStudy(opts)
	if err != nil {
		return err
	}
	fmt.Println(s)
	return nil
}

func runProbe(name string, opts experiment.Options) error {
	w, err := workload.ByName(name)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%s): %s\n", w.Name, w.Category, w.Description)
	for _, c := range experiment.AllConfigs() {
		m, err := experiment.Run(w, c, opts)
		if err != nil {
			return err
		}
		status := "ok"
		if m.Err != nil {
			status = m.Err.Error()
		}
		fmt.Printf("%-10s cycles=%-11d instrs=%-10d mem=%-10d syscalls=%-7d vpages=%-6d peakframes=%-6d %s\n",
			c, m.Cycles, m.Counters.Instrs, m.Counters.MemAccesses,
			m.Counters.Syscalls, m.ReservedPages, m.PeakFrames, status)
		if m.InjectedFaults > 0 {
			fmt.Printf("%-10s faults=%-7d retries=%-7d degraded=%-6d degraded-frees=%-6d unprotected=%-6d\n",
				"", m.InjectedFaults, m.TransientRetries, m.DegradedAllocs,
				m.DegradedFrees, m.UnprotectedFrees)
		}
	}
	return nil
}
