package pipeline

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// ExecSource supplies the dynamic instruction stream that drives fetch.
// The simulator is trace-driven either way; what varies is where the
// trace comes from:
//
//   - lockstep execution (New): a functional emu.Machine resolves each
//     instruction as fetch consumes it — required for wrong-path
//     execution, which steps the machine down mispredicted paths and
//     rolls it back;
//   - replay (NewReplay): a pre-captured trace.Reader streams the same
//     records without re-executing, so a sweep runs each program once
//     and times it under every configuration.
//
// The contract is exact equivalence: for the same program, Step must
// yield the identical emu.Record sequence, errors included, and
// Output/StateHash the identical final architectural results. The
// differential harness in internal/verify pins this.
type ExecSource interface {
	// Step produces the next dynamic instruction record, or emu.ErrHalted
	// after the final one.
	Step() (emu.Record, error)
	// PC is the index of the next instruction Step would produce
	// (instruction-cache probes fetch by PC before consuming).
	PC() uint32
	// Halted reports whether the stream is exhausted.
	Halted() bool
	// Program returns the program being streamed.
	Program() *isa.Program
	// Output returns the program's Out values (complete once Halted).
	Output() []int32
	// StateHash returns the final architectural digest (valid once Halted).
	StateHash() [32]byte
}

// machineSource adapts the lockstep functional emulator to ExecSource.
type machineSource struct{ m *emu.Machine }

func (ms machineSource) Step() (emu.Record, error) { return ms.m.Step() }
func (ms machineSource) PC() uint32                { return ms.m.PC() }
func (ms machineSource) Halted() bool              { return ms.m.Halted() }
func (ms machineSource) Program() *isa.Program     { return ms.m.Program() }
func (ms machineSource) Output() []int32           { return ms.m.Output }
func (ms machineSource) StateHash() [32]byte       { return ms.m.StateHash() }

// NewReplay builds a simulator driven by a replay source instead of
// lockstep execution. Wrong-path execution is refused: it must execute
// down mispredicted paths, which only a concrete machine can do — a
// trace has exactly the architectural path.
func NewReplay(cfg Config, src ExecSource) (*Simulator, error) {
	if cfg.WrongPathExecution {
		return nil, fmt.Errorf("pipeline: %s: wrong-path execution cannot run from a replay source (it executes mispredicted paths; use New)", cfg.Name)
	}
	return newSimulator(cfg, src, nil)
}
