package pageguard

import "repro/internal/workload"

// Workloads lists the evaluation programs (name and description), in the
// paper's table order.
func Workloads() []workload.Workload { return workload.All() }

// WorkloadSource returns the mini-C source of a named workload.
func WorkloadSource(name string) (string, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return "", err
	}
	return w.Source, nil
}
