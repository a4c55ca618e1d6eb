// Command pgrun compiles and executes a mini-C program on the simulated
// machine, with or without dangling pointer detection.
//
// Usage:
//
//	pgrun [-mode detect|native|pa|detect-nopa|static] file.c
//	pgrun -workload running-example            # run a bundled workload
//
// On a detected dangling pointer use, pgrun prints the full report (alloc
// site, free site, faulting access) and exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/workload"
	"repro/pageguard"
)

func main() {
	mode := flag.String("mode", "detect", "run mode: detect, native, pa, detect-nopa, static (detection with static elision)")
	wl := flag.String("workload", "", "run a bundled workload by name instead of a file")
	stats := flag.Bool("stats", false, "print cycle/syscall/page statistics after the run")
	flag.Parse()

	code, err := run(*mode, *wl, *stats, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgrun:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(modeName, wl string, stats bool, args []string) (int, error) {
	m, err := pageguard.ParseMode(modeName)
	if err != nil {
		return 0, err
	}

	var src string
	switch {
	case wl != "":
		s, err := pageguard.WorkloadSource(wl)
		if err != nil {
			names := ""
			for _, w := range workload.All() {
				names += " " + w.Name
			}
			return 0, fmt.Errorf("%w (available:%s)", err, names)
		}
		src = s
	case len(args) == 1:
		b, err := os.ReadFile(args[0])
		if err != nil {
			return 0, err
		}
		src = string(b)
	default:
		return 0, errors.New("expected exactly one source file (or -workload)")
	}

	prog, err := pageguard.Compile(src)
	if err != nil {
		return 0, err
	}
	res, err := prog.Run(pageguard.NewMachine(pageguard.WithSiteProfile()), m)
	if err != nil {
		return 0, err
	}
	fmt.Print(res.Output)
	if stats {
		fmt.Fprintf(os.Stderr, "[pgrun] mode=%s cycles=%d syscalls=%d vpages=%d pools=%d\n",
			m, res.Cycles, res.Syscalls, res.VirtualPages, prog.Pools)
		if res.Profile != nil && res.Profile.TotalCycles() > 0 {
			fmt.Fprintf(os.Stderr, "[pgrun] cycle attribution (top sites):\n%s",
				res.Profile.TopTable(5))
		}
	}
	if res.Err != nil {
		if de, ok := res.Dangling(); ok {
			if res.Report != nil {
				fmt.Fprint(os.Stderr, res.Report.String())
				if n := len(res.Report.Flight); n > 0 {
					const tail = 8
					evs := res.Report.Flight
					if n > tail {
						evs = evs[n-tail:]
					}
					fmt.Fprintf(os.Stderr, "[pgrun] flight recorder (last %d of %d events):\n%s",
						len(evs), n, pageguard.FormatFlight(evs))
				}
			}
			fmt.Fprintf(os.Stderr, "[pgrun] DETECTED: %v\n", de)
			return 2, nil
		}
		fmt.Fprintf(os.Stderr, "[pgrun] program error: %v\n", res.Err)
		return 3, nil
	}
	return 0, nil
}
