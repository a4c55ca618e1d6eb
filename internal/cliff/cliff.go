// Cliff workloads: allocation/access trace generators that drive the
// detector toward the §3.4 virtual-address cliff. Unlike the mini-C
// workloads (which model the paper's evaluation programs), these are event
// streams replayed through the trace machinery, so the exhaustion study can
// run one workload under many reuse policies, GC schedules, and compressed
// VA budgets without recompiling anything.
//
// Every generator is deterministic and follows two ground-truth rules that
// make the missed-detection ledger exact and policy-comparable:
//
//  1. Every free is eventually followed by a 'z' (forget) for that id, so a
//     conservative collector is allowed to recycle the pages — the cliff is
//     survivable by recycling, not by luck.
//  2. Stale probes of forgotten ids (the uses a collector can legitimately
//     lose) happen only inside the first core.DefaultInterval allocations.
//     A gc=256 schedule therefore misses nothing (no cycle can have run),
//     while aggressive schedules (gc=64) deterministically miss the probes
//     that crossed a cycle — the measured detection/cost tradeoff.
//
// Rooted stale uses (free, use, then z) are sprinkled throughout: a
// conservative collector must detect all of them at any interval (the
// replayer's root table pins them), while blind on-exhaustion reclamation
// sacrifices the ones freed before the cliff hit.
package cliff

import (
	"fmt"

	"repro/trace"
)

// TraceWorkload is one cliff workload: a deterministic trace generator.
type TraceWorkload struct {
	Name        string
	Description string
	// Generate returns the event stream, with Line set to the event's
	// 1-based ordinal so replay sites and detections are stable.
	Generate func() []trace.Event
}

// CliffWorkloads returns the exhaustion-study workloads.
func CliffWorkloads() []TraceWorkload {
	return []TraceWorkload{
		{Name: "churn",
			Description: "server-style request churn: batched alloc/use/free rounds with one rooted stale read per round",
			Generate:    func() []trace.Event { return genChurn(40, 12) }},
		{Name: "treeadd-storm",
			Description: "Olden treeadd pressure: build a binary tree, sum it, drop it, repeat",
			Generate:    func() []trace.Event { return genTreeStorm(6, 8, 24, false) }},
		{Name: "bisort-storm",
			Description: "Olden bisort pressure: build a tree, swap-heavy sort passes, drop it, repeat",
			Generate:    func() []trace.Event { return genTreeStorm(6, 8, 16, true) }},
	}
}

// CliffByName returns the named cliff workload.
func CliffByName(name string) (TraceWorkload, error) {
	for _, w := range CliffWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return TraceWorkload{}, fmt.Errorf("cliff: unknown cliff workload %q", name)
}

// tb builds event streams with ordinal line numbers.
type tb struct {
	evs []trace.Event
	// allocs counts EvAlloc events, mirroring the detector's allocation
	// clock that drives interval GC triggers.
	allocs uint64
}

func (b *tb) emit(ev trace.Event) {
	ev.Line = len(b.evs) + 1
	b.evs = append(b.evs, ev)
}

func (b *tb) alloc(id, size uint64) {
	b.allocs++
	b.emit(trace.Event{Kind: trace.EvAlloc, ID: id, Size: size})
}
func (b *tb) free(id uint64)       { b.emit(trace.Event{Kind: trace.EvFree, ID: id}) }
func (b *tb) write(id, off uint64) { b.emit(trace.Event{Kind: trace.EvWrite, ID: id, Off: off}) }
func (b *tb) read(id, off uint64)  { b.emit(trace.Event{Kind: trace.EvRead, ID: id, Off: off}) }
func (b *tb) forget(id uint64)     { b.emit(trace.Event{Kind: trace.EvForget, ID: id}) }
func (b *tb) size(i int, base uint64) uint64 {
	// Deterministic size mix around base: 3 size classes, all one shadow
	// page, so page accounting stays proportional to allocation count.
	return base + uint64(i%3)*96
}

// plantProbeWindow emits the early miss-window: nVictims objects are
// allocated, used, freed, stale-read once while rooted (always detected),
// forgotten, buried under filler allocations that cross an aggressive GC
// interval, and probed. The probes are the only stale uses of forgotten ids
// in any cliff workload, and they all happen before allocation 256.
func (b *tb) plantProbeWindow(victimBase uint64, nVictims, filler int) {
	for i := 0; i < nVictims; i++ {
		b.alloc(victimBase+uint64(i), 128)
		b.write(victimBase+uint64(i), 0)
	}
	for i := 0; i < nVictims; i++ {
		id := victimBase + uint64(i)
		b.free(id)
		b.read(id, 0) // rooted stale read: detected under every GC schedule
		b.forget(id)
	}
	// Filler allocations carry an aggressive schedule across its interval;
	// they stay live until after the probes so the recycled victim pages
	// are re-aliased (the probes then read someone else's live data — the
	// silent corruption the ledger counts).
	for i := 0; i < filler; i++ {
		id := victimBase + 1000 + uint64(i)
		b.alloc(id, b.size(i, 64))
		b.write(id, 0)
	}
	for i := 0; i < nVictims; i++ {
		b.read(victimBase+uint64(i), 0) // probe: miss iff a cycle ran since z
	}
	for i := 0; i < filler; i++ {
		id := victimBase + 1000 + uint64(i)
		b.free(id)
		b.forget(id)
	}
}

// genChurn is the server-shaped cliff workload: rounds of batch allocations
// with full use, then free + one rooted stale read + forget.
func genChurn(rounds, batch int) []trace.Event {
	b := &tb{}
	b.plantProbeWindow(1, 8, 80)
	next := uint64(10000)
	for r := 0; r < rounds; r++ {
		ids := make([]uint64, batch)
		for i := 0; i < batch; i++ {
			ids[i] = next
			next++
			b.alloc(ids[i], b.size(r+i, 32))
			b.write(ids[i], 0)
			b.write(ids[i], 24)
		}
		for _, id := range ids {
			b.read(id, 0)
		}
		for i, id := range ids {
			b.free(id)
			if i == 0 {
				// One rooted stale read per round: a retransmit path
				// touching the request buffer it just released.
				b.read(id, 8)
			}
			b.forget(id)
		}
	}
	return b.evs
}

// genTreeStorm models the Olden tree benchmarks: build a complete binary
// tree of 2^depth-1 nodes, traverse it (reads for treeadd, write-heavy
// passes for bisort), then drop the whole tree and repeat.
func genTreeStorm(depth, rounds int, nodeSize uint64, writeHeavy bool) []trace.Event {
	b := &tb{}
	b.plantProbeWindow(1, 4, 80)
	nodes := (1 << depth) - 1
	next := uint64(10000)
	for r := 0; r < rounds; r++ {
		ids := make([]uint64, nodes)
		for i := 0; i < nodes; i++ {
			ids[i] = next
			next++
			b.alloc(ids[i], nodeSize)
			b.write(ids[i], 0) // link/init the node
		}
		if writeHeavy {
			// Bisort: log(n) swap passes writing both "child pointers".
			for pass := 0; pass < depth; pass++ {
				for i := pass; i < nodes; i += pass + 2 {
					b.write(ids[i], 0)
					b.write(ids[i], 8)
				}
			}
		} else {
			// Treeadd: one summing traversal.
			for i := 0; i < nodes; i++ {
				b.read(ids[i], 0)
			}
		}
		// Drop the tree. One rooted stale read per round (the classic
		// "sum after free" bug), then the program forgets every node.
		for i := nodes - 1; i >= 0; i-- {
			b.free(ids[i])
		}
		b.read(ids[0], 0)
		for i := 0; i < nodes; i++ {
			b.forget(ids[i])
		}
	}
	return b.evs
}
