package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/pool"
	"repro/internal/sim/vm"
)

// TestRandomizedLifecycleInvariants drives the remapper with random
// interleavings of pool creation/destruction, allocation, free, and access,
// checking the detection invariants after every step:
//
//   - live objects are readable and hold their data;
//   - freed objects trap with correct provenance;
//   - physical frames never exceed a bound proportional to live bytes;
//   - pool destroy retires exactly its own objects.
func TestRandomizedLifecycleInvariants(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(string(rune('A'+seed)), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			f := newFixture(t, Config{})

			type tracked struct {
				ptr   vm.Addr
				size  uint64
				tag   uint64
				pool  *pool.Pool
				freed bool
			}
			var objs []*tracked
			var pools []*pool.Pool
			nextTag := uint64(1)

			allocTarget := func() (Allocator, *pool.Pool) {
				if len(pools) > 0 && r.Intn(2) == 0 {
					p := pools[r.Intn(len(pools))]
					return p, p
				}
				return HeapAllocator{f.heap}, nil
			}

			for step := 0; step < 400; step++ {
				switch r.Intn(10) {
				case 0: // create pool
					if len(pools) < 4 {
						pools = append(pools, f.rt.Init("P", 16))
					}
				case 1: // destroy pool
					if len(pools) > 0 {
						i := r.Intn(len(pools))
						p := pools[i]
						pools = append(pools[:i], pools[i+1:]...)
						f.rm.OnPoolDestroy(p)
						if err := p.Destroy(); err != nil {
							t.Fatalf("step %d: destroy: %v", step, err)
						}
						// Objects of this pool are no longer
						// tracked (their pages recycle).
						kept := objs[:0]
						for _, o := range objs {
							if o.pool != p {
								kept = append(kept, o)
							}
						}
						objs = kept
					}
				case 2, 3, 4: // alloc
					al, owner := allocTarget()
					size := uint64(8 + r.Intn(200))
					ptr, err := f.rm.Alloc(al, owner, size, "rand")
					if err != nil {
						t.Fatalf("step %d: alloc: %v", step, err)
					}
					o := &tracked{ptr: ptr, size: size, tag: nextTag, pool: owner}
					nextTag++
					if err := f.proc.MMU().WriteWord(ptr, 8, o.tag); err != nil {
						t.Fatalf("step %d: init write: %v", step, err)
					}
					objs = append(objs, o)
				case 5, 6: // free a live object
					for _, o := range objs {
						if o.freed {
							continue
						}
						al := Allocator(HeapAllocator{f.heap})
						if o.pool != nil {
							al = o.pool
						}
						if err := f.rm.Free(al, o.ptr, "rand-free"); err != nil {
							t.Fatalf("step %d: free: %v", step, err)
						}
						o.freed = true
						break
					}
				default: // access a random tracked object
					if len(objs) == 0 {
						continue
					}
					o := objs[r.Intn(len(objs))]
					v, err := f.proc.MMU().ReadWord(o.ptr, 8)
					if o.freed {
						var fault *vm.Fault
						if !errors.As(err, &fault) {
							t.Fatalf("step %d: freed object readable", step)
						}
						var de *DanglingError
						if e := f.rm.Explain(fault, "check"); !errors.As(e, &de) {
							t.Fatalf("step %d: fault not explained: %v", step, e)
						}
						if de.Object.FreeSite != "rand-free" {
							t.Fatalf("step %d: wrong provenance %+v", step, de.Object)
						}
					} else {
						if err != nil {
							t.Fatalf("step %d: live object traps: %v", step, err)
						}
						if v != o.tag {
							t.Fatalf("step %d: tag %d != %d (data corrupted)", step, v, o.tag)
						}
					}
				}

				// Physical bound: frames should track live bytes,
				// not allocation count. Allow stack/globals (320)
				// plus arenas and slab slack.
				var liveBytes uint64
				for _, o := range objs {
					if !o.freed {
						liveBytes += o.size
					}
				}
				frames := f.proc.System().PhysMemory().InUse()
				bound := 320 + 64 + 2*(liveBytes/vm.PageSize+1) + uint64(len(pools)+4)*8
				if frames > bound {
					t.Fatalf("step %d: %d frames for %d live bytes (bound %d)",
						step, frames, liveBytes, bound)
				}
			}
		})
	}
}
