package experiment

// Parallel cell fan-out. Every Run builds its own kernel.System, process,
// MMU, and meter, and all package-level state it reads (workload tables,
// cost models) is immutable, so distinct (workload, configuration) cells are
// independent and can run concurrently. The harness exploits that: tables
// and studies enumerate their cells up front, RunCells fans them out across
// a bounded worker pool, and the results are assembled strictly by cell
// index — so the rendered tables, the error returned, and every simulated
// number are identical whatever the interleaving or worker count.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// Cell is one (workload, configuration) coordinate of a table or study.
type Cell struct {
	Workload workload.Workload
	Config   Config
}

func (c Cell) name() string { return c.Workload.Name + "/" + c.Config.String() }

// workers resolves Options.Parallelism: 0 means one worker per available
// CPU, anything else is taken literally (1 = sequential).
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// RunCells measures every cell, fanned out across a bounded pool of
// opts.Parallelism workers. Results come back indexed by cell regardless of
// scheduling, and on failure the lowest-indexed cell's error is returned —
// exactly what a sequential loop over cells would produce.
func RunCells(cells []Cell, opts Options) ([]Measurement, error) {
	workers := opts.workers()
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make([]Measurement, len(cells))
	errs := make([]error, len(cells))
	runCell := func(i int) {
		start := time.Now()
		results[i], errs[i] = Run(cells[i].Workload, cells[i].Config, opts)
		harness.record(cells[i], time.Since(start).Seconds(), workers)
	}
	if workers <= 1 {
		for i := range cells {
			runCell(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runCell(i)
				}
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// runGrid measures every workload x configuration cell of a table and
// returns, per workload, the config-indexed measurements, fanning the cells
// out per opts.Parallelism.
func runGrid(ws []workload.Workload, cfgs []Config, opts Options) ([]map[Config]Measurement, error) {
	cells := make([]Cell, 0, len(ws)*len(cfgs))
	for _, w := range ws {
		for _, c := range cfgs {
			cells = append(cells, Cell{Workload: w, Config: c})
		}
	}
	ms, err := RunCells(cells, opts)
	if err != nil {
		return nil, err
	}
	out := make([]map[Config]Measurement, len(ws))
	for i := range ws {
		byCfg := make(map[Config]Measurement, len(cfgs))
		for j, c := range cfgs {
			byCfg[c] = ms[i*len(cfgs)+j]
		}
		out[i] = byCfg
	}
	return out, nil
}

// HarnessStats records wall-clock facts about harness fan-out: how many
// workers the last RunCells used, how many cells have been measured, and
// each cell's wall-clock seconds. These are host-time observations about
// the harness itself, deliberately kept out of the per-workload simulated
// metrics (which must be independent of the worker count).
type HarnessStats struct {
	mu          sync.Mutex
	parallelism int
	cells       uint64
	cellSecs    map[string]float64
}

var harness = &HarnessStats{cellSecs: make(map[string]float64)}

// Harness returns the process-wide harness statistics collector.
func Harness() *HarnessStats { return harness }

func (h *HarnessStats) record(c Cell, seconds float64, workers int) {
	h.mu.Lock()
	h.parallelism = workers
	h.cells++
	h.cellSecs[c.name()] = seconds
	h.mu.Unlock()
}

// RegisterMetrics exposes the harness series on reg: the
// pg_harness_parallel_runs concurrency gauge, the cells-measured counter,
// and one wall-clock gauge per measured cell.
func (h *HarnessStats) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("pg_harness_parallel_runs",
		"worker goroutines used by the most recent parallel table/study run",
		func() float64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return float64(h.parallelism)
		})
	reg.CounterFunc("pg_harness_cells_total",
		"workload x configuration cells measured by the harness",
		func() uint64 {
			h.mu.Lock()
			defer h.mu.Unlock()
			return h.cells
		})
	h.mu.Lock()
	names := make([]string, 0, len(h.cellSecs))
	for name := range h.cellSecs {
		names = append(names, name)
	}
	h.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		name := name
		reg.GaugeFunc(fmt.Sprintf("pg_harness_cell_seconds{cell=%q}", name),
			"wall-clock seconds spent measuring one workload/configuration cell",
			func() float64 {
				h.mu.Lock()
				defer h.mu.Unlock()
				return h.cellSecs[name]
			})
	}
}
