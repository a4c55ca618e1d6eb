package pageguard

import "slices"

// Snapshot holds a validated set of machine options; Fork builds a fresh
// machine from them.
//
// Deprecated: build each machine with NewMachine and hand it back with
// Machine.Release, whose pools make a fresh machine as cheap as a fork of a
// pre-warmed one was. Snapshot remains only for the benchmark's in-process
// model, until the next change to it (ROADMAP item 9).
type Snapshot struct {
	opts []Option
}

// NewSnapshot checks that a process can be set up with opts and keeps them.
func NewSnapshot(opts ...Option) (*Snapshot, error) {
	m := NewMachine(opts...)
	_, err := m.NewProcess()
	m.Release()
	if err != nil {
		return nil, err
	}
	return &Snapshot{opts: slices.Clip(slices.Clone(opts))}, nil
}

// Fork returns NewMachine with the snapshot's options followed by extra. It
// never fails, and is safe to call from many goroutines at once.
func (s *Snapshot) Fork(extra ...Option) (*Machine, error) {
	return NewMachine(append(s.opts, extra...)...), nil
}
