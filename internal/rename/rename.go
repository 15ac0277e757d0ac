// Package rename implements the register rename stage's bookkeeping: the
// logical→physical map table (the RAM scheme of Section 4.1) and the
// physical register free list. The paper's baseline machine (Table 3) has
// 120 physical integer registers.
package rename

import (
	"fmt"

	"repro/internal/isa"
)

// None marks "no physical register".
const None int16 = -1

// Table is the rename map plus free list.
type Table struct {
	mapping [isa.NumRegs]int16
	free    []int16
	nPhys   int
}

// New creates a rename table with nPhys physical registers; the first
// isa.NumRegs of them hold the initial architectural state.
func New(nPhys int) (*Table, error) {
	if nPhys <= isa.NumRegs {
		return nil, fmt.Errorf("rename: %d physical registers cannot back %d architectural", nPhys, isa.NumRegs)
	}
	t := &Table{nPhys: nPhys}
	for i := range t.mapping {
		t.mapping[i] = int16(i)
	}
	for p := nPhys - 1; p >= isa.NumRegs; p-- {
		t.free = append(t.free, int16(p))
	}
	return t, nil
}

// NumPhys returns the total number of physical registers.
func (t *Table) NumPhys() int { return t.nPhys }

// Available returns the number of free physical registers.
func (t *Table) Available() int { return len(t.free) }

// Lookup returns the physical register currently mapped to r.
func (t *Table) Lookup(r isa.Reg) int16 { return t.mapping[r] }

// InFlight returns the number of physical registers allocated beyond the
// isa.NumRegs backing the architectural state — one per in-flight
// instruction with a destination. A nonzero value after the pipeline
// drains is a free-list leak (an allocation whose Release or Undo was
// lost); the invariant checker in package pipeline asserts it is zero.
func (t *Table) InFlight() int { return t.nPhys - isa.NumRegs - len(t.free) }

// Rename maps the instruction's sources through the current table and, if
// the instruction writes a register, allocates a new physical destination.
// The physical sources are appended to buf (pass a zero-length slice with
// retained capacity to rename without allocating). It returns the
// physical sources, the new physical destination (None if the instruction
// writes nothing), and the previous mapping of the destination (to be
// freed when this instruction commits). ok is false — with no state
// changed — if no physical register is free.
func (t *Table) Rename(buf []int16, srcs []isa.Reg, dest isa.Reg, hasDest bool) (physSrcs []int16, physDest, oldDest int16, ok bool) {
	physSrcs = buf
	for _, r := range srcs {
		physSrcs = append(physSrcs, t.mapping[r])
	}
	if !hasDest {
		return physSrcs, None, None, true
	}
	if len(t.free) == 0 {
		return nil, None, None, false
	}
	physDest = t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	oldDest = t.mapping[dest]
	t.mapping[dest] = physDest
	return physSrcs, physDest, oldDest, true
}

// Release returns a physical register to the free list. Callers pass the
// oldDest of a committing instruction.
func (t *Table) Release(p int16) {
	if p == None {
		return
	}
	t.free = append(t.free, p)
}

// Undo reverses the most recent Rename of dest (used when the instruction
// fails to dispatch in the same cycle and must be retried): the previous
// mapping is restored and the allocated register returns to the free list.
func (t *Table) Undo(dest isa.Reg, physDest, oldDest int16) {
	if physDest == None {
		return
	}
	t.mapping[dest] = oldDest
	t.free = append(t.free, physDest)
}
