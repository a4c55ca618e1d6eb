package core

import (
	"errors"

	"repro/internal/sim/kernel"
	"repro/internal/sim/vm"
)

// Batched protection is the §6 extension study: "the system call overhead
// for allocations and deallocations ... we plan to investigate simple OS
// and architectural enhancements that can reduce both these kinds of
// overheads". With batching enabled, Free queues shadow runs instead of
// protecting them immediately; every batchSize-th free flushes the queue
// through one (hypothetical) multi-range mprotect.
//
// The trade-off is a bounded detection window: a dangling use of an object
// whose protection is still queued goes undetected. The window is at most
// batchSize-1 deallocations; Flush closes it on demand (a server would
// flush when idle). BenchmarkAblationBatchedFree quantifies the syscall
// savings on the allocation-intensive workloads.

// EnableBatchedProtect turns on deallocation batching with the given batch
// size. A size of zero or one keeps the paper's immediate protection.
func (r *Remapper) EnableBatchedProtect(batchSize int) {
	if batchSize <= 1 {
		r.batchSize = 0
		return
	}
	r.batchSize = batchSize
}

// PendingProtect returns the number of freed objects whose shadow pages are
// not yet protected (the current detection gap).
func (r *Remapper) PendingProtect() int { return len(r.pending) }

// Flush protects every queued shadow run in one batched syscall, closing
// the detection window.
func (r *Remapper) Flush() error {
	if len(r.pending) == 0 {
		return nil
	}
	runs := make([][2]uint64, 0, len(r.pending))
	objs := make([]*Object, 0, len(r.pending))
	for _, obj := range r.pending {
		// Objects recycled since queueing (pool destroy, reuse
		// policy) must not be re-protected: their pages may already
		// back new allocations.
		if obj.State != StateFreed {
			continue
		}
		runs = append(runs, [2]uint64{obj.ShadowRun.Addr, obj.ShadowRun.Pages})
		objs = append(objs, obj)
	}
	r.pending = r.pending[:0]
	if len(runs) == 0 {
		return nil
	}
	err := r.retryTransient(func() error {
		return r.proc.MprotectRuns(runs, vm.ProtNone)
	})
	if err == nil {
		return nil
	}
	// A persistent injected failure degrades the whole batch to
	// unprotected frees — the canonical frees already happened, so
	// availability wins and detection narrows. Real errors propagate.
	var se *kernel.SyscallError
	if !errors.As(err, &se) {
		return err
	}
	for _, obj := range objs {
		r.dropUnprotected(obj)
	}
	return nil
}

// queueProtect defers protection of a freed object, flushing when the batch
// fills.
func (r *Remapper) queueProtect(obj *Object) error {
	r.pending = append(r.pending, obj)
	if len(r.pending) >= r.batchSize {
		return r.Flush()
	}
	return nil
}
