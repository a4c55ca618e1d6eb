package vm

import (
	"math"
	"testing"
)

// rangeCell is one page of TestRangeMapMatchesPageModel's model: the value
// covering the page and the page's offset within it.
type rangeCell struct {
	val uint32
	off uint64
}

// TestRangeMapMatchesPageModel drives a RangeMap and a per-page map model
// through random overlapping Set, Delete, DeleteIf and Update edits, which
// split entries and replace runs of them with one, in clusters spread from
// the bottom of the user space to its end. After every step a random Get and Find must agree with the model;
// every few steps ForEach and ForEachIn must visit exactly the model's pages,
// in order, with their values and offsets. The map is
// released and rebuilt from its pool partway, so a reused node array must
// hold nothing of the old map.
func TestRangeMapMatchesPageModel(t *testing.T) {
	var pool RangePool[uint32]
	var m RangeMap[uint32]
	m.UsePool(&pool)
	model := make(map[VPN]rangeCell)
	next := xorshift()
	last := VPN(limitPages) - 1
	clusters := []VPN{16, 1<<12 - 60, 1<<24 - 60, last - 119}
	pick := func() (VPN, uint64) {
		n := 1 + next()%40
		c := clusters[next()%uint64(len(clusters))]
		return c + VPN(next()%(121-n)), n
	}
	for step := 0; step < 20000; step++ {
		if step == 10000 {
			m.Release()
			model = make(map[VPN]rangeCell)
		}
		vpn, n := pick()
		switch next() % 5 {
		case 0, 1:
			v := uint32(next()%6) + 1
			if err := m.Set(vpn, n, v); err != nil {
				t.Fatalf("step %d: Set: %v", step, err)
			}
			for i := uint64(0); i < n; i++ {
				model[vpn+VPN(i)] = rangeCell{v, i}
			}
		case 2:
			if err := m.Delete(vpn, n); err != nil {
				t.Fatalf("step %d: Delete: %v", step, err)
			}
			for i := uint64(0); i < n; i++ {
				delete(model, vpn+VPN(i))
			}
		case 3:
			odd := func(v uint32) bool { return v%2 == 1 }
			if err := m.DeleteIf(vpn, n, odd); err != nil {
				t.Fatalf("step %d: DeleteIf: %v", step, err)
			}
			for i := uint64(0); i < n; i++ {
				if c, ok := model[vpn+VPN(i)]; ok && odd(c.val) {
					delete(model, vpn+VPN(i))
				}
			}
		case 4:
			// Update may only change what a value says, so it maps
			// each value to its partner of the same parity class.
			flip := func(v uint32) uint32 { return v + 6 }
			if err := m.Update(vpn, n, flip); err != nil {
				t.Fatalf("step %d: Update: %v", step, err)
			}
			for i := uint64(0); i < n; i++ {
				if c, ok := model[vpn+VPN(i)]; ok {
					model[vpn+VPN(i)] = rangeCell{flip(c.val), c.off}
				}
			}
		}
		probe, _ := pick()
		c, ok := model[probe]
		sp, fok := m.Find(probe)
		if m.Get(probe) != c.val || fok != ok || sp.Val != c.val || (ok && sp.Off != c.off) {
			t.Fatalf("step %d: Find(%#x) = %+v, %v; model %+v, %v", step, probe, sp, fok, c, ok)
		}
		for k := uint64(1); ok && k < sp.Rest; k++ {
			// Every page up to the entry's end continues it.
			if nc := model[probe+VPN(k)]; nc.val != c.val || nc.off != c.off+k {
				t.Fatalf("step %d: Find(%#x).Rest = %d, but page +%d is %+v", step, probe, sp.Rest, k, nc)
			}
		}
		if step%500 == 0 {
			checkRangeWalk(t, &m, model)
		}
	}
	checkRangeWalk(t, &m, model)
	if m.Get(last+1) != 0 {
		t.Fatal("Get beyond the user space found an entry")
	}
	if err := m.Set(last, 2, 1); err == nil {
		t.Fatal("Set past the end of the user space did not fail")
	}
	if err := m.Delete(16, math.MaxUint64); err == nil {
		t.Fatal("Delete of 2^64-1 pages did not fail")
	}
}

// checkRangeWalk checks ForEach and a clipped ForEachIn against the model:
// every mapped page visited once, ascending, with its value and offset, and
// Pages equal to the model's size.
func checkRangeWalk(t *testing.T, m *RangeMap[uint32], model map[VPN]rangeCell) {
	t.Helper()
	if m.Pages() != uint64(len(model)) {
		t.Fatalf("Pages = %d, model holds %d", m.Pages(), len(model))
	}
	var visited []VPN
	m.ForEach(func(start VPN, n uint64, v uint32, off uint64) bool {
		for i := uint64(0); i < n; i++ {
			if c := model[start+VPN(i)]; c.val != v || c.off != off+i {
				t.Fatalf("ForEach page %#x = (%d, %d), model %+v", start+VPN(i), v, off+i, c)
			}
			visited = append(visited, start+VPN(i))
		}
		return true
	})
	checkAscendingKeys(t, visited, model)

	lo, hi := VPN(1<<12-50), VPN(1<<12+30)
	var inside []VPN
	m.ForEachIn(lo, uint64(hi-lo), func(start VPN, n uint64, v uint32, off uint64) bool {
		if start < lo || uint64(hi-start) < n {
			t.Fatalf("ForEachIn visited %#x/%d outside [%#x, %#x)", start, n, lo, hi)
		}
		for i := uint64(0); i < n; i++ {
			if c := model[start+VPN(i)]; c.val != v || c.off != off+i {
				t.Fatalf("ForEachIn page %#x = (%d, %d), model %+v", start+VPN(i), v, off+i, c)
			}
			inside = append(inside, start+VPN(i))
		}
		return true
	})
	want := make(map[VPN]rangeCell)
	for v, c := range model {
		if v >= lo && v < hi {
			want[v] = c
		}
	}
	checkAscendingKeys(t, inside, want)
}

// BenchmarkRangeMap times the object index's life in one replay-unique
// replay: 160 objects of 12–36 pages set at ascending addresses, two
// lookups in each, and each object's entry deleted by value when it is
// retired, on a map released to its pool after every replay.
func BenchmarkRangeMap(b *testing.B) {
	var pool RangePool[*int]
	objs := make([]int, 160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m RangeMap[*int]
		m.UsePool(&pool)
		vpn := VPN(1 << 20)
		for j := range objs {
			n := uint64(12 + j%25)
			if err := m.Set(vpn, n, &objs[j]); err != nil {
				b.Fatal(err)
			}
			if m.Get(vpn) != &objs[j] || m.Get(vpn+VPN(n-1)) != &objs[j] {
				b.Fatal("lookup miss")
			}
			vpn += VPN(n)
		}
		vpn = VPN(1 << 20)
		for j := range objs {
			n := uint64(12 + j%25)
			o := &objs[j]
			if err := m.DeleteIf(vpn, n, func(v *int) bool { return v == o }); err != nil {
				b.Fatal(err)
			}
			vpn += VPN(n)
		}
		m.Release()
	}
}
