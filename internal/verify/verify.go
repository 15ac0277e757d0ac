// Package verify cross-checks the timing simulator against the
// functional emulator: whatever the machine organization — central
// window or FIFO bank, clustered or not — the committed instruction
// stream and the final
// architectural state must be exactly those of pure emulation. Timing
// models change *when* things happen, never *what* happens.
//
// The package pairs the seeded random program generator (prog.Random)
// with a panel of structurally diverse machine configurations, runs
// every program both ways, and reports the first divergence. Every
// panel run also has the cycle-level invariant checker armed
// (pipeline.Config.CheckInvariants), so a run that commits the right
// results the wrong way still fails. Panel selection is seeded, so the
// whole cross-check is reproducible run to run.
package verify

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/trace"
)

// maxCycles bounds one panel simulation; generated programs retire a few
// thousand instructions, so this is a runaway guard only.
const maxCycles = 50_000_000

// maxInsts bounds the reference emulation of one generated program.
const maxInsts = 10_000_000

func table3(name string, clusters, interDelay int, sched core.SchedulerSpec) pipeline.Config {
	return pipeline.Config{
		Name:              name,
		FetchWidth:        8,
		DecodeWidth:       8,
		IssueWidth:        8,
		RetireWidth:       16,
		MaxInFlight:       128,
		PhysRegs:          120,
		Clusters:          clusters,
		FUsPerCluster:     8 / clusters,
		LSPorts:           4,
		InterClusterDelay: interDelay,
		FrontEndDepth:     2,
		FetchQueueSize:    32,
		Scheduler:         &sched,
		CheckInvariants:   true,
		RecordTimeline:    true,
	}
}

// Panel returns the machine configurations every program is checked
// against: one per mechanism the timing simulator implements, so a
// bookkeeping bug in any of them diverges from the reference. All run
// with the invariant checker and timeline recording armed.
func Panel() []pipeline.Config {
	window := table3("window", 1, 0, core.WindowSpec(64))

	fifos := table3("fifos", 1, 0, core.FIFOBankSpec(core.FIFOBankConfig{
		Name: "fifos-8x8", Clusters: 1, FIFOsPerCluster: 8, Depth: 8,
	}))

	clustered := table3("clustered", 2, 1, core.FIFOBankSpec(core.FIFOBankConfig{
		Name: "fifos-2x4x8", Clusters: 2, FIFOsPerCluster: 4, Depth: 8,
	}))

	execSteered := table3("exec-steered", 2, 1, core.ExecSteeredSpec(64, 2))

	pws := table3("pipelined-wakeup", 1, 0, core.WindowSpec(64))
	pws.PipelinedWakeupSelect = true
	pws.LocalBypassExtra = 1

	kitchenSink := table3("fifos-icache", 1, 0, core.FIFOBankSpec(core.FIFOBankConfig{
		Name: "fifos-8x8", Clusters: 1, FIFOsPerCluster: 8, Depth: 8,
	}))
	kitchenSink.StoreForwarding = true
	kitchenSink.FetchBreakOnTaken = true
	ic := cache.Config{SizeBytes: 1 << 10, Ways: 1, LineBytes: 32, HitCycles: 1, MissCycles: 10}
	kitchenSink.ICache = &ic

	return []pipeline.Config{window, fifos, clustered, execSteered, pws, kitchenSink}
}

// reference is the ground truth for one program: the committed-PC stream
// and final architectural state of pure emulation.
type reference struct {
	pcs    []uint32
	output []int32
	hash   [32]byte
	n      uint64
}

func emulate(p *isa.Program) (*reference, error) {
	m := emu.New(p)
	ref := &reference{}
	for !m.Halted() {
		if m.Executed >= maxInsts {
			return nil, fmt.Errorf("verify: %s: reference emulation exceeded %d instructions", p.Name, maxInsts)
		}
		rec, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("verify: %s: reference emulation: %w", p.Name, err)
		}
		ref.pcs = append(ref.pcs, rec.PC)
	}
	ref.output = m.Output
	ref.hash = m.StateHash()
	ref.n = m.Executed
	return ref, nil
}

// Check runs the program through every configuration and returns the
// first divergence from the emulation reference (nil if all agree).
func Check(p *isa.Program, cfgs []pipeline.Config) error {
	ref, err := emulate(p)
	if err != nil {
		return err
	}
	tr, err := trace.Capture(p, maxInsts)
	if err != nil {
		return fmt.Errorf("verify: %s: %w", p.Name, err)
	}
	defer tr.Close()
	for i := range cfgs {
		if err := checkOne(p, cfgs[i], ref, tr); err != nil {
			return err
		}
	}
	return nil
}

func checkOne(p *isa.Program, cfg pipeline.Config, ref *reference, tr *trace.Trace) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("verify: %s on %s: %s", p.Name, cfg.Name, fmt.Sprintf(format, args...))
	}
	sim, err := pipeline.New(cfg, p)
	if err != nil {
		return fail("%v", err)
	}
	st, err := sim.Run(maxCycles)
	if err != nil {
		return fail("%v", err)
	}
	if st.Committed != ref.n {
		return fail("committed %d instructions, reference executed %d", st.Committed, ref.n)
	}
	out := sim.Output()
	if len(out) != len(ref.output) {
		return fail("output %v, reference %v", out, ref.output)
	}
	for i, v := range ref.output {
		if out[i] != v {
			return fail("output[%d] = %d, reference %d", i, out[i], v)
		}
	}
	if sim.StateHash() != ref.hash {
		return fail("final architectural state diverges from reference (registers or memory)")
	}
	tl := sim.Timeline()
	if len(tl) != len(ref.pcs) {
		return fail("committed stream has %d instructions, reference %d", len(tl), len(ref.pcs))
	}
	for i, e := range tl {
		if e.PC != ref.pcs[i] {
			return fail("committed[%d] at pc %d, reference pc %d", i, e.PC, ref.pcs[i])
		}
		if e.Seq != uint64(i) {
			return fail("committed[%d] has seq %d", i, e.Seq)
		}
	}
	return checkFastPath(p, cfg, st, ref, tr)
}

// checkFastPath reruns the program with the verification instruments
// stripped — which enables the production fast path: event-driven wakeup
// plus idle-cycle skipping (unless cfg.NoCycleSkip keeps skipping off) —
// and asserts the timing, not just the architecture, is identical to the
// instrumented run. This is the guarantee that lets the fast path exist:
// skipping and event wakeup can never change a cycle count.
func checkFastPath(p *isa.Program, cfg pipeline.Config, inst pipeline.Stats, ref *reference, tr *trace.Trace) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("verify: %s on %s (fast path): %s", p.Name, cfg.Name, fmt.Sprintf(format, args...))
	}
	bare := cfg
	bare.CheckInvariants = false
	bare.RecordTimeline = false
	sim, err := pipeline.New(bare, p)
	if err != nil {
		return fail("%v", err)
	}
	st, err := sim.Run(maxCycles)
	if err != nil {
		return fail("%v", err)
	}
	if err := pipeline.DiffStats(st, inst); err != nil {
		return fail("diverges from the instrumented run: %v", err)
	}
	if sim.StateHash() != ref.hash {
		return fail("final architectural state diverges")
	}
	return checkReplay(p, bare, st, ref, tr)
}

// checkReplay reruns the bare configuration driven by trace replay
// instead of lockstep execution and asserts *every* statistic — cycle
// count, per-category counters, cache stats, issue histogram — is
// identical, plus the final architectural results. This is the guarantee
// that lets the sweep engine substitute replay for execution: the two
// source modes are indistinguishable to the timing model.
func checkReplay(p *isa.Program, bare pipeline.Config, exec pipeline.Stats, ref *reference, tr *trace.Trace) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("verify: %s on %s (replay): %s", p.Name, bare.Name, fmt.Sprintf(format, args...))
	}
	sim, err := pipeline.NewReplay(bare, trace.NewReader(tr))
	if err != nil {
		return fail("%v", err)
	}
	st, err := sim.Run(maxCycles)
	if err != nil {
		return fail("%v", err)
	}
	if err := pipeline.DiffStats(st, exec); err != nil {
		return fail("diverges from the execution-driven run: %v", err)
	}
	return checkFinalState(fail, sim, ref)
}

// checkFinalState asserts a replay-driven simulator's final
// architectural results match the emulation reference.
func checkFinalState(fail func(string, ...any) error, sim *pipeline.Simulator, ref *reference) error {
	if sim.StateHash() != ref.hash {
		return fail("final architectural state diverges")
	}
	out := sim.Output()
	if len(out) != len(ref.output) {
		return fail("output %v, reference %v", out, ref.output)
	}
	for i, v := range ref.output {
		if out[i] != v {
			return fail("output[%d] = %d, reference %d", i, out[i], v)
		}
	}
	return nil
}

// CheckSeed generates the program selected by rc and differentially
// checks it against the full panel.
func CheckSeed(rc prog.RandomConfig) error {
	p, err := prog.Random(rc)
	if err != nil {
		return err
	}
	return Check(p, Panel())
}
