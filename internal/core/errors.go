package core

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim/vm"
)

// DanglingError reports a detected dangling pointer use: a read, write, or
// free of an object after it was freed. It carries the full provenance the
// paper's run-time handler can reconstruct from its bookkeeping.
type DanglingError struct {
	// Fault is the hardware fault that fired.
	Fault *vm.Fault
	// Object is the freed allocation the access landed in.
	Object *Object
	// UseSite labels the faulting operation's source location.
	UseSite string
	// Offset is the byte offset of the access relative to the start of
	// the object (negative offsets hit the header word, e.g. on a double
	// free).
	Offset int64
	// Report is the full forensic record of the trap, renderable as text
	// or JSON (obs.TrapReport).
	Report *obs.TrapReport
}

// Error implements error.
func (e *DanglingError) Error() string {
	var buf [256]byte
	return string(e.AppendError(buf[:0]))
}

// AppendError appends the Error message to b.
func (e *DanglingError) AppendError(b []byte) []byte {
	kind := "use"
	switch {
	case e.Offset < 0:
		kind = "double free"
	case e.Fault.Access == vm.AccessWrite:
		kind = "write"
	case e.Fault.Access == vm.AccessRead:
		kind = "read"
	}
	b = append(append(append(b, "dangling pointer "...), kind...), " at "...)
	b = append(append(b, e.UseSite...), ": object of "...)
	b = append(strconv.AppendUint(b, e.Object.UserSize, 10), " bytes allocated at "...)
	b = append(append(b, e.Object.AllocSite...), " (seq "...)
	b = append(strconv.AppendUint(b, e.Object.AllocSeq, 10), "), freed at "...)
	b = append(append(b, e.Object.FreeSite...), "; access at offset "...)
	return appendSigned(b, e.Offset)
}

// appendSigned appends v as fmt's %+d does.
func appendSigned(b []byte, v int64) []byte {
	if v >= 0 {
		b = append(b, '+')
	}
	return strconv.AppendInt(b, v, 10)
}

// IsDouble reports whether the use was a free of an already-freed object.
func (e *DanglingError) IsDouble() bool { return e.Offset < 0 }

// DoubleFreeError is the first-class report of a double free: a free of an
// object that was already freed. It embeds the DanglingError that the
// header-read trap (or the batched-mode bookkeeping check) produced, so
// errors.As(err, **DanglingError) keeps matching at every existing call
// site, and names both free sites explicitly: the original free recorded on
// the object, and the offending second free.
type DoubleFreeError struct {
	DanglingError
	// FirstFreeSite labels the free that legitimately retired the object.
	FirstFreeSite string
	// SecondFreeSite labels the offending repeated free.
	SecondFreeSite string
}

// Unwrap exposes the embedded DanglingError to errors.As/errors.Is chains.
func (e *DoubleFreeError) Unwrap() error { return &e.DanglingError }

// newDoubleFreeError wraps a detected double free. The embedded
// DanglingError's message is kept verbatim (golden-tested downstream); the
// wrapper only adds the typed forensics.
func newDoubleFreeError(de DanglingError) *DoubleFreeError {
	return &DoubleFreeError{
		DanglingError:  de,
		FirstFreeSite:  de.Object.FreeSite,
		SecondFreeSite: de.UseSite,
	}
}
