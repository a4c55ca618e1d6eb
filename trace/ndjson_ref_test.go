package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/pageguard"
)

// The reference encoder: the encoding/json rendering that AppendNDJSON
// replaced, kept as the oracle FuzzAppendNDJSON and
// TestAppendNDJSONCoversEveryField compare the hand-written encoder with.
// Every struct here has fixed tag order and no maps, so its output is
// stable.

// ndjsonReplay is the header line: event counts of the replay.
type ndjsonReplay struct {
	Type    string `json:"type"` // "replay"
	Events  int    `json:"events"`
	Allocs  int    `json:"allocs"`
	Frees   int    `json:"frees"`
	Reads   int    `json:"reads"`
	Writes  int    `json:"writes"`
	Forgets int    `json:"forgets,omitempty"`
}

// ndjsonFault is one injected syscall fault.
type ndjsonFault struct {
	Type  string `json:"type"` // "fault"
	Call  string `json:"call"`
	Errno string `json:"errno"`
}

// ndjsonDetection is one detected memory error, with the full forensic
// report for dangling detections.
type ndjsonDetection struct {
	Type   string                `json:"type"` // "detection"
	Line   int                   `json:"line"`
	Error  string                `json:"error"`
	Report *pageguard.TrapReport `json:"report,omitempty"`
}

// ndjsonStats is the trailer: the process's final detector statistics.
type ndjsonStats struct {
	Type             string `json:"type"` // "stats"
	Allocs           uint64 `json:"allocs"`
	Frees            uint64 `json:"frees"`
	DanglingDetected uint64 `json:"dangling_detected"`
	DoubleFrees      uint64 `json:"double_frees,omitempty"`
	Cycles           uint64 `json:"cycles"`
	Syscalls         uint64 `json:"syscalls"`
	VirtualPages     uint64 `json:"virtual_pages"`
	InjectedFaults   uint64 `json:"injected_faults"`
	TransientRetries uint64 `json:"transient_retries"`
	DegradedAllocs   uint64 `json:"degraded_allocs"`
	DegradedFrees    uint64 `json:"degraded_frees"`
	UnprotectedFrees uint64 `json:"unprotected_frees"`
	RecycledPages    uint64 `json:"recycled_pages,omitempty"`
	GCRuns           uint64 `json:"gc_runs,omitempty"`
	GCCycleCost      uint64 `json:"gc_cycle_cycles,omitempty"`
	MissedDetections uint64 `json:"missed_detections,omitempty"`
}

// referenceNDJSON renders rep through encoding/json.
func referenceNDJSON(w io.Writer, rep *Report) error {
	bw := bufio.NewWriter(w)
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		return bw.WriteByte('\n')
	}
	if err := emit(ndjsonReplay{
		Type: "replay", Events: rep.Events,
		Allocs: rep.Allocs, Frees: rep.Frees, Reads: rep.Reads, Writes: rep.Writes,
		Forgets: rep.Forgets,
	}); err != nil {
		return err
	}
	for _, f := range rep.InjectedFaults {
		if err := emit(ndjsonFault{Type: "fault", Call: f.Call.String(), Errno: f.Errno.String()}); err != nil {
			return err
		}
	}
	for _, d := range rep.Detections {
		if err := emit(ndjsonDetection{
			Type: "detection", Line: d.Line, Error: fmt.Sprint(d.Err), Report: d.Report,
		}); err != nil {
			return err
		}
	}
	s := rep.Stats
	if err := emit(ndjsonStats{
		Type: "stats", Allocs: s.Allocs, Frees: s.Frees,
		DanglingDetected: s.DanglingDetected, DoubleFrees: s.DoubleFrees,
		Cycles: s.Cycles, Syscalls: s.Syscalls,
		VirtualPages: s.VirtualPages, InjectedFaults: s.InjectedFaults,
		TransientRetries: s.TransientRetries, DegradedAllocs: s.DegradedAllocs,
		DegradedFrees: s.DegradedFrees, UnprotectedFrees: s.UnprotectedFrees,
		RecycledPages: s.RecycledPages, GCRuns: s.GCRuns,
		GCCycleCost: s.GCCycleCost, MissedDetections: s.MissedDetections,
	}); err != nil {
		return err
	}
	return bw.Flush()
}
