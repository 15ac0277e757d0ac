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

// SlabStream feeds a simulator pre-decoded record windows — in practice
// trace.SlabCursor walking a shared SlabCache, so a gang of simulators
// reads one decoded copy of the workload instead of each re-decoding the
// packed stream. Windows are immutable and remain valid until the next
// NextWindow (or Release) call; NextWindow reports with its second
// result whether the returned window is the stream's last.
type SlabStream interface {
	NextWindow() ([]emu.Record, bool, error)
	Program() *isa.Program
	Output() []int32
	StateHash() [32]byte
	Release()
}

// slabSource adapts a SlabStream to ExecSource. Its Step is an index
// and a bounds check on the current window — no per-record interface
// dispatch, no decode — with the window-refill (once per quarter-million
// records) kept out of line.
//
// Invariant: pos < len(recs) unless the stream has halted or errored;
// fill runs eagerly when a window drains, so Halted flips true on the
// very Step that returns the final record, exactly like trace.Reader
// decoding the Halt, and a refill failure surfaces on the Step for
// precisely the record the streaming Reader would have errored on.
type slabSource struct {
	stream SlabStream
	recs   []emu.Record
	pos    int
	last   bool   // recs is the stream's final window
	lastPC uint32 // PC after the stream drains (the halt record's NextPC)
	halted bool
	err    error
}

// fill advances to the next window (or to the halted/errored terminal
// state). Cold path: called once per window, never per record.
func (s *slabSource) fill() {
	if n := len(s.recs); n > 0 {
		s.lastPC = s.recs[n-1].NextPC
	}
	s.recs, s.pos = nil, 0
	for {
		if s.last {
			s.halted = true
			s.stream.Release()
			return
		}
		recs, last, err := s.stream.NextWindow()
		if err != nil {
			s.err = err
			s.stream.Release()
			return
		}
		s.last = last
		if len(recs) > 0 {
			s.recs = recs
			return
		}
	}
}

//ce:hot
func (s *slabSource) Step() (emu.Record, error) {
	r, err := s.next()
	if err != nil {
		return emu.Record{}, err
	}
	return *r, nil
}

// next is Step without the copy: the record stays valid until the
// window it lives in is released, which fill does only after the
// window's last record has been handed out.
//
//ce:hot
func (s *slabSource) next() (*emu.Record, error) {
	if s.pos < len(s.recs) {
		rec := &s.recs[s.pos]
		s.pos++
		if s.pos == len(s.recs) {
			s.fill()
		}
		return rec, nil
	}
	if s.halted {
		return nil, emu.ErrHalted
	}
	return nil, s.err
}

//ce:hot
func (s *slabSource) PC() uint32 {
	if s.pos < len(s.recs) {
		return s.recs[s.pos].PC
	}
	return s.lastPC
}

func (s *slabSource) Halted() bool          { return s.halted }
func (s *slabSource) Program() *isa.Program { return s.stream.Program() }
func (s *slabSource) Output() []int32       { return s.stream.Output() }
func (s *slabSource) StateHash() [32]byte   { return s.stream.StateHash() }

// NewSlabReplay builds a simulator driven by a shared-slab stream. Same
// contract as NewReplay — byte-identical records, refuses wrong-path
// execution — but every gang member reads the one decoded copy. The
// first window is primed here so a corrupt first chunk fails
// construction (mirroring trace.NewReader surfacing load errors early).
func NewSlabReplay(cfg Config, stream SlabStream) (*Simulator, error) {
	if cfg.WrongPathExecution {
		return nil, fmt.Errorf("pipeline: %s: wrong-path execution cannot run from a replay source (it executes mispredicted paths; use New)", cfg.Name)
	}
	src := &slabSource{stream: stream, recs: nil}
	src.fill()
	if src.err != nil {
		return nil, src.err
	}
	return newSimulator(cfg, src, nil)
}
