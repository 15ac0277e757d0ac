package emu

import "fmt"

// Checkpoint/restore support: the timing simulator uses this to execute
// down a mispredicted path (fetching and executing wrong-path
// instructions) and roll the architectural state back when the branch
// resolves.
//
// Register state, PC and counters are snapshotted; memory is rolled back
// through a write journal that records each overwritten byte while at
// least one checkpoint is live.

// memWrite is one journaled byte overwrite.
type memWrite struct {
	addr uint32
	old  byte
}

// Checkpoint is a restorable machine state. It is only valid for the
// machine that created it, and only until an older checkpoint is restored
// or committed.
type Checkpoint struct {
	regs       [32]int32
	pc         uint32
	halted     bool
	executed   uint64
	outputLen  int
	journalLen int
	// depth is the number of live checkpoints including this one at the
	// moment it was taken. Restore and Commit pop every checkpoint taken
	// after it in one step, so the machine's journalDepth bookkeeping
	// stays consistent however deeply speculation nested.
	depth int
}

// Checkpoint snapshots the architectural state and begins journaling
// memory writes. Checkpoints nest: restoring (or committing) an older
// checkpoint discards every newer one.
func (m *Machine) Checkpoint() Checkpoint {
	m.journalDepth++
	return Checkpoint{
		regs:       m.regs,
		pc:         m.pc,
		halted:     m.halted,
		executed:   m.Executed,
		outputLen:  len(m.Output),
		journalLen: len(m.journal),
		depth:      m.journalDepth,
	}
}

// Restore rolls the machine back to the checkpointed state, undoing every
// journaled memory write made since — youngest first, so writes journaled
// under checkpoints nested above cp are unwound in exact reverse order.
// Checkpoints taken after cp are discarded along with it: restoring an
// older checkpoint while a newer one is live pops both, leaving the
// machine speculating only if checkpoints older than cp remain.
func (m *Machine) Restore(cp Checkpoint) error {
	if m.journalDepth == 0 {
		return fmt.Errorf("emu: Restore without a live checkpoint")
	}
	if cp.depth > m.journalDepth {
		// cp was already popped by restoring/committing an older
		// checkpoint; its snapshot describes a rolled-back future.
		return fmt.Errorf("emu: stale checkpoint (depth %d, only %d live)", cp.depth, m.journalDepth)
	}
	if cp.journalLen > len(m.journal) {
		return fmt.Errorf("emu: stale checkpoint (journal %d < checkpoint %d)", len(m.journal), cp.journalLen)
	}
	for i := len(m.journal) - 1; i >= cp.journalLen; i-- {
		w := m.journal[i]
		m.page(w.addr)[w.addr&(1<<pageBits-1)] = w.old
	}
	m.journal = m.journal[:cp.journalLen]
	m.regs = cp.regs
	m.pc = cp.pc
	m.halted = cp.halted
	m.Executed = cp.executed
	m.Output = m.Output[:cp.outputLen]
	m.journalDepth = cp.depth - 1
	return nil
}

// Commit discards a checkpoint without restoring it (the speculation
// turned out architecturally irrelevant), along with any checkpoints
// taken after it. The journal is truncated only when the last live
// checkpoint is discarded.
func (m *Machine) Commit(cp Checkpoint) error {
	if m.journalDepth == 0 {
		return fmt.Errorf("emu: Commit without a live checkpoint")
	}
	if cp.depth > m.journalDepth {
		return fmt.Errorf("emu: stale checkpoint (depth %d, only %d live)", cp.depth, m.journalDepth)
	}
	m.journalDepth = cp.depth - 1
	if m.journalDepth == 0 {
		m.journal = m.journal[:0]
	}
	return nil
}

// SetPC redirects execution — used to force the machine down a predicted
// (possibly wrong) path during speculative fetch.
func (m *Machine) SetPC(pc uint32) { m.pc = pc }

// Speculating reports whether at least one checkpoint is live.
func (m *Machine) Speculating() bool { return m.journalDepth > 0 }
