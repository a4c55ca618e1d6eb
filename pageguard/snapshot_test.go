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

// TestSnapshotForkParity: a forked machine must produce exactly the numbers
// a fresh machine produces, across the per-request option matrix.
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

// TestSnapshotForkStructuralMismatch: options that change the machine
// structure must be rejected, never served by a machine of another shape.
func TestSnapshotForkStructuralMismatch(t *testing.T) {
	snap, err := NewSnapshot()
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	if _, err := snap.Fork(WithStackPages(512)); err == nil {
		t.Fatal("Fork with different StackPages succeeded, want structural error")
	}
	if _, err := snap.Fork(WithMaxFrames(100)); err == nil {
		t.Fatal("Fork with different MaxFrames succeeded, want structural error")
	}
}

// TestSnapshotForkBudgetTooSmall: a VA budget below the fixed stack+globals
// reservation is not a Fork error; the forked machine's NewProcess fails
// exactly like kernel.NewProcess does.
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
	freshErr := func() error {
		_, err := NewMachine(WithVABudget(100)).NewProcess()
		return err
	}()
	if forkErr == nil || freshErr == nil {
		t.Fatalf("tiny budget accepted: fork=%v fresh=%v", forkErr, freshErr)
	}
	if forkErr.Error() != freshErr.Error() {
		t.Errorf("budget errors differ: fork %q, fresh %q", forkErr, freshErr)
	}
}

// TestSnapshotForkConcurrentIsolation: many concurrent forks of one snapshot
// must mutate independently (run under -race) and each must match the fresh
// machine byte for byte.
func TestSnapshotForkConcurrentIsolation(t *testing.T) {
	snap, err := NewSnapshot()
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	// Per-goroutine expected digests from fresh machines, computed serially.
	const workers = 8
	want := make([]string, workers)
	for i := range want {
		fresh, err := NewMachine().NewProcess()
		if err != nil {
			t.Fatalf("fresh NewProcess: %v", err)
		}
		want[i] = driveProcess(t, fresh, 120+10*i)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := snap.Fork()
			if err != nil {
				t.Errorf("Fork: %v", err)
				return
			}
			p, err := m.NewProcess()
			if err != nil {
				t.Errorf("NewProcess: %v", err)
				return
			}
			if got := driveProcess(t, p, 120+10*i); got != want[i] {
				t.Errorf("worker %d diverged:\nfresh:  %s\nforked: %s", i, want[i], got)
			}
		}(i)
	}
	wg.Wait()
}
