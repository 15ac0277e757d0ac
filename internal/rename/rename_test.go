package rename

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(isa.NumRegs); err == nil {
		t.Error("New with no spare registers succeeded")
	}
	rt, err := New(120)
	if err != nil {
		t.Fatal(err)
	}
	if rt.NumPhys() != 120 {
		t.Errorf("NumPhys = %d", rt.NumPhys())
	}
	if rt.Available() != 120-isa.NumRegs {
		t.Errorf("Available = %d, want %d", rt.Available(), 120-isa.NumRegs)
	}
}

func TestInitialIdentityMapping(t *testing.T) {
	rt, _ := New(64)
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if rt.Lookup(r) != int16(r) {
			t.Errorf("initial mapping of %s = %d", r, rt.Lookup(r))
		}
	}
}

func TestRenameTracksDependences(t *testing.T) {
	rt, _ := New(64)
	// i1: t0 = t1 + t2
	srcs, d1, old1, ok := rt.Rename(nil, []isa.Reg{isa.T1, isa.T2}, isa.T0, true)
	if !ok {
		t.Fatal("rename failed")
	}
	if srcs[0] != int16(isa.T1) || srcs[1] != int16(isa.T2) {
		t.Errorf("sources = %v, want initial mappings", srcs)
	}
	if old1 != int16(isa.T0) {
		t.Errorf("old dest = %d, want initial %d", old1, isa.T0)
	}
	// i2: t3 = t0 + t0 — must see i1's new mapping.
	srcs2, _, _, ok := rt.Rename(nil, []isa.Reg{isa.T0, isa.T0}, isa.T3, true)
	if !ok {
		t.Fatal("rename failed")
	}
	if srcs2[0] != d1 || srcs2[1] != d1 {
		t.Errorf("i2 sources = %v, want both %d", srcs2, d1)
	}
}

func TestRenameWithoutDest(t *testing.T) {
	rt, _ := New(40)
	avail := rt.Available()
	_, d, old, ok := rt.Rename(nil, []isa.Reg{isa.T0}, 0, false)
	if !ok || d != None || old != None {
		t.Errorf("no-dest rename: d=%d old=%d ok=%v", d, old, ok)
	}
	if rt.Available() != avail {
		t.Error("no-dest rename consumed a register")
	}
}

func TestExhaustionAndRelease(t *testing.T) {
	rt, _ := New(34) // two spare registers
	_, d1, old1, ok := rt.Rename(nil, nil, isa.T0, true)
	if !ok {
		t.Fatal("first rename failed")
	}
	_, _, _, ok = rt.Rename(nil, nil, isa.T1, true)
	if !ok {
		t.Fatal("second rename failed")
	}
	if _, _, _, ok = rt.Rename(nil, nil, isa.T2, true); ok {
		t.Fatal("rename succeeded with empty free list")
	}
	// Committing the first instruction frees its old mapping.
	rt.Release(old1)
	_, d3, _, ok := rt.Rename(nil, nil, isa.T2, true)
	if !ok {
		t.Fatal("rename after release failed")
	}
	if d3 != old1 {
		t.Errorf("reallocated %d, want released %d", d3, old1)
	}
	_ = d1
}

func TestUndo(t *testing.T) {
	rt, _ := New(64)
	before := rt.Lookup(isa.T0)
	avail := rt.Available()
	_, d, old, ok := rt.Rename(nil, nil, isa.T0, true)
	if !ok {
		t.Fatal("rename failed")
	}
	rt.Undo(isa.T0, d, old)
	if rt.Lookup(isa.T0) != before {
		t.Errorf("mapping after undo = %d, want %d", rt.Lookup(isa.T0), before)
	}
	if rt.Available() != avail {
		t.Errorf("available after undo = %d, want %d", rt.Available(), avail)
	}
	// Undo of a no-dest rename is a no-op.
	rt.Undo(isa.T0, None, None)
	if rt.Available() != avail {
		t.Error("undo of no-dest rename changed the free list")
	}
}

func TestInFlightTracksAllocations(t *testing.T) {
	rt, _ := New(40)
	if rt.InFlight() != 0 {
		t.Fatalf("fresh table InFlight = %d, want 0", rt.InFlight())
	}
	_, d, old, ok := rt.Rename(nil, nil, isa.T0, true)
	if !ok {
		t.Fatal("rename failed")
	}
	if rt.InFlight() != 1 {
		t.Errorf("after one rename InFlight = %d, want 1", rt.InFlight())
	}
	_, _, old2, ok := rt.Rename(nil, nil, isa.T1, true)
	if !ok {
		t.Fatal("rename failed")
	}
	if rt.InFlight() != 2 {
		t.Errorf("after two renames InFlight = %d, want 2", rt.InFlight())
	}
	// Commit path: releasing the previous mappings restores balance.
	rt.Release(old)
	rt.Release(old2)
	if rt.InFlight() != 0 {
		t.Errorf("after releases InFlight = %d, want 0 (leak)", rt.InFlight())
	}
	// Dispatch-retry path: Undo restores balance too.
	_, d, old, _ = rt.Rename(nil, nil, isa.T2, true)
	rt.Undo(isa.T2, d, old)
	if rt.InFlight() != 0 {
		t.Errorf("after undo InFlight = %d, want 0", rt.InFlight())
	}
}

func TestReleaseNoneIsNoop(t *testing.T) {
	rt, _ := New(40)
	avail := rt.Available()
	rt.Release(None)
	if rt.Available() != avail {
		t.Error("Release(None) changed the free list")
	}
}

func TestPropertyNoDoubleAllocation(t *testing.T) {
	// Under random rename/release traffic, a live physical register is
	// never handed out twice.
	f := func(ops []uint8) bool {
		rt, err := New(48)
		if err != nil {
			return false
		}
		live := map[int16]bool{}
		var pending []int16 // oldDests awaiting commit
		for _, op := range ops {
			dest := isa.Reg(op % isa.NumRegs)
			if op%3 == 0 && len(pending) > 0 {
				rt.Release(pending[0])
				delete(live, pending[0])
				pending = pending[1:]
				continue
			}
			_, d, old, ok := rt.Rename(nil, nil, dest, true)
			if !ok {
				continue
			}
			if live[d] {
				return false // double allocation
			}
			live[d] = true
			if old != None {
				pending = append(pending, old)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
