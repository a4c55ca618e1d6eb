package pageguard

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// driveProcess runs a deterministic direct-mode workload and returns a
// printable digest of everything observable: stats, detections, and memory
// contents read back through the MMU.
func driveProcess(t *testing.T, p *Process, n int) string {
	t.Helper()
	out := ""
	var live []Ptr
	for i := 0; i < n; i++ {
		size := uint64(16 + (i%7)*48)
		ptr, err := p.Malloc(size, fmt.Sprintf("site%d", i%5))
		if err != nil {
			t.Fatalf("malloc %d: %v", i, err)
		}
		if err := p.Write(ptr, 0, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		live = append(live, ptr)
		if i%3 == 2 {
			victim := live[0]
			live = live[1:]
			var buf [2]byte
			if err := p.Read(victim, 0, buf[:]); err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			out += fmt.Sprintf("r%d=%x ", i, buf)
			if err := p.Free(victim, "free"); err != nil {
				t.Fatalf("free %d: %v", i, err)
			}
			// Dangling read: must be detected.
			err := p.Read(victim, 0, buf[:])
			var dangling *DanglingError
			if !errors.As(err, &dangling) {
				t.Fatalf("stale read %d: got %v, want DanglingError", i, err)
			}
		}
	}
	for _, ptr := range live {
		if err := p.Free(ptr, "drain"); err != nil {
			t.Fatalf("drain free: %v", err)
		}
	}
	return out + p.Stats().String()
}

// The Snapshot shim builds fresh machines; these tests hold it to the
// contract the benchmark's in-process model relies on until the shim goes.

// TestSnapshotForkParity: a machine from Snapshot.Fork must produce exactly
// the numbers a fresh machine produces, across the per-request option
// matrix.
func TestSnapshotForkParity(t *testing.T) {
	cases := []struct {
		name  string
		extra []Option
	}{
		{"plain", nil},
		{"guards", []Option{WithOverflowGuards()}},
		{"policy", []Option{WithPolicySpec("interval=8")}},
		{"faults", []Option{WithFaultSchedule("seed=7;mremap:prob=0.05;mprotect:prob=0.05")}},
		{"vabudget", []Option{WithVABudget(5000)}},
		{"spans", []Option{WithSpanTracing()}},
		{"gc", []Option{WithPolicySpec("gc=32,watermark=4000")}},
	}
	snap, err := NewSnapshot()
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh, err := NewMachine(tc.extra...).NewProcess()
			if err != nil {
				t.Fatalf("fresh NewProcess: %v", err)
			}
			want := driveProcess(t, fresh, 200)

			m, err := snap.Fork(tc.extra...)
			if err != nil {
				t.Fatalf("Fork: %v", err)
			}
			forked, err := m.NewProcess()
			if err != nil {
				t.Fatalf("forked NewProcess: %v", err)
			}
			if got := driveProcess(t, forked, 200); got != want {
				t.Errorf("fork diverged from fresh machine:\nfresh:  %s\nforked: %s", want, got)
			}
		})
	}
}

// TestSnapshotForkBudgetTooSmall: a VA budget below the fixed stack+globals
// reservation is not a Fork error; the forked machine's NewProcess fails
// exactly like a fresh machine's does.
func TestSnapshotForkBudgetTooSmall(t *testing.T) {
	snap, err := NewSnapshot()
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	m, err := snap.Fork(WithVABudget(100))
	if err != nil {
		t.Fatalf("Fork with a tiny budget: %v, want the error deferred to NewProcess", err)
	}
	_, forkErr := m.NewProcess()
	_, freshErr := NewMachine(WithVABudget(100)).NewProcess()
	if forkErr == nil || freshErr == nil {
		t.Fatalf("tiny budget accepted: fork=%v fresh=%v", forkErr, freshErr)
	}
	if forkErr.Error() != freshErr.Error() {
		t.Errorf("budget errors differ: fork %q, fresh %q", forkErr, freshErr)
	}
}

// TestSnapshotForkConcurrentIsolation: concurrent Forks, each adding its own
// fault schedule to the snapshot's options, must each match the fresh
// machine built from the same options (run under -race). The snapshot's
// options arrive in a slice with spare capacity, so a Fork that appended
// into it would race with the others and serve another worker's schedule.
func TestSnapshotForkConcurrentIsolation(t *testing.T) {
	base := make([]Option, 0, 8)
	base = append(base, WithOverflowGuards(), WithPolicySpec("interval=8"))
	snap, err := NewSnapshot(base...)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	const workers = 8
	schedule := func(i int) Option {
		return WithFaultSchedule(fmt.Sprintf("seed=%d;mremap:prob=0.05;mprotect:prob=0.05", i+1))
	}
	want := make([]string, workers)
	for i := range want {
		fresh, err := NewMachine(WithOverflowGuards(), WithPolicySpec("interval=8"), schedule(i)).NewProcess()
		if err != nil {
			t.Fatalf("fresh NewProcess: %v", err)
		}
		want[i] = driveProcess(t, fresh, 120)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := snap.Fork(schedule(i))
			if err != nil {
				t.Errorf("Fork: %v", err)
				return
			}
			p, err := m.NewProcess()
			if err != nil {
				t.Errorf("NewProcess: %v", err)
				return
			}
			if got := driveProcess(t, p, 120); got != want[i] {
				t.Errorf("worker %d diverged:\nfresh:  %s\nforked: %s", i, want[i], got)
			}
		}(i)
	}
	wg.Wait()
}
