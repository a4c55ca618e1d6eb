package obs

import (
	"encoding/json"
	"fmt"
	"strings"
)

// TrapKind classifies the faulting access of a TrapReport.
type TrapKind string

// Trap kinds. A free of an already-freed object is its own kind because the
// paper counts frees as uses ("use of a pointer is a read, write or free
// operation", §2.1).
const (
	TrapRead       TrapKind = "read"
	TrapWrite      TrapKind = "write"
	TrapDoubleFree TrapKind = "double-free"
)

// TrapReport is the forensic record of one detected dangling pointer use:
// everything the run-time system knows when the shadow page traps. It is a
// pure data struct (addresses are uint64, sites are strings) so every layer
// can carry it without importing the simulator.
type TrapReport struct {
	// Kind is the faulting access: read, write, or double-free.
	Kind TrapKind `json:"kind"`
	// UseSite labels the faulting operation's source position (an IR site
	// label "func:line", or "trace:N" for replayed traces).
	UseSite string `json:"use_site"`
	// AllocSite and FreeSite are the object's provenance: where it was
	// allocated and where it was freed.
	AllocSite string `json:"alloc_site"`
	FreeSite  string `json:"free_site"`
	// ObjectSeq is the object's allocation sequence number (the N-th
	// protected allocation of the process).
	ObjectSeq uint64 `json:"object_seq"`
	// ObjectSize is the size the program requested, in bytes.
	ObjectSize uint64 `json:"object_size"`
	// Pool names the owning Automatic Pool Allocation pool ("" for
	// direct/interposition mode); PoolID is its runtime id (0 if none).
	Pool   string `json:"pool,omitempty"`
	PoolID uint64 `json:"pool_id,omitempty"`
	// State is the object's lifetime state when the trap fired (normally
	// "freed").
	State string `json:"state"`
	// Offset is the byte offset of the access relative to the start of the
	// object; negative offsets hit the remap header word (a double free).
	Offset int64 `json:"offset"`
	// PageOffset is the byte offset of the faulting address within its
	// shadow page.
	PageOffset uint64 `json:"page_offset"`
	// FaultAddr is the faulting virtual address; ShadowAddr is the object's
	// shadow (program-visible) address; CanonAddr is the canonical address
	// the underlying allocator knows.
	FaultAddr  uint64 `json:"fault_addr"`
	ShadowAddr uint64 `json:"shadow_addr"`
	CanonAddr  uint64 `json:"canon_addr"`
	// FreeCycles and TrapCycles are the process meter readings at free time
	// and at trap delivery; CyclesSinceFree is their difference — how long
	// the pointer dangled before the use.
	FreeCycles      uint64 `json:"free_cycles"`
	TrapCycles      uint64 `json:"trap_cycles"`
	CyclesSinceFree uint64 `json:"cycles_since_free"`
	// AllocLine and FreeLine are trace-event provenance (1-based line
	// numbers in the replayed trace file); zero outside trace replays.
	AllocLine int `json:"alloc_line,omitempty"`
	FreeLine  int `json:"free_line,omitempty"`
	// Flight is the process's flight-recorder window at trap time — the
	// last-N allocator/syscall/GC/degradation events leading up to the
	// trap, oldest first. It is read-only: the reports of one process share
	// its storage (FlightRecorder.Window). It appears in the JSON encoding
	// only; the human-readable String() is unchanged (dumps are rendered
	// separately with FormatFlight).
	Flight []FlightEvent `json:"flight,omitempty"`
}

// String renders the report as a multi-line, ASan-style human-readable
// block. Every line is stable given stable inputs (the simulator is
// deterministic), so the format is locked by golden tests.
func (r *TrapReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==PageGuard== dangling pointer %s at %s\n", r.Kind, r.UseSite)
	fmt.Fprintf(&b, "  access:    va %#x, offset %+d into object (byte %d of shadow page)\n",
		r.FaultAddr, r.Offset, r.PageOffset)
	pool := "(direct heap)"
	if r.Pool != "" {
		pool = fmt.Sprintf("pool %q (id %d)", r.Pool, r.PoolID)
	}
	fmt.Fprintf(&b, "  object:    #%d, %d bytes, state %s, %s\n",
		r.ObjectSeq, r.ObjectSize, r.State, pool)
	fmt.Fprintf(&b, "  allocated: at %s", r.AllocSite)
	if r.AllocLine > 0 {
		fmt.Fprintf(&b, " (trace line %d)", r.AllocLine)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  freed:     at %s", r.FreeSite)
	if r.FreeLine > 0 {
		fmt.Fprintf(&b, " (trace line %d)", r.FreeLine)
	}
	fmt.Fprintf(&b, ", %d cycles before this use\n", r.CyclesSinceFree)
	fmt.Fprintf(&b, "  addresses: shadow va %#x, canonical va %#x\n", r.ShadowAddr, r.CanonAddr)
	return b.String()
}

// JSON renders the report as a single JSON object.
func (r *TrapReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseTrapReport is the inverse of JSON: it decodes a report, rejecting
// unknown fields so the wire format stays honest.
func ParseTrapReport(data []byte) (*TrapReport, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var r TrapReport
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("obs: bad trap report: %w", err)
	}
	return &r, nil
}
