package pipeline

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/prog"
)

// cfg returns a Table 3 baseline configuration with the given scheduler.
func cfg(name string, clusters, interDelay int, sched func(b core.Bounds) core.Scheduler) Config {
	return Config{
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
		PerfectBPred:      true,
		NewScheduler:      sched,
	}
}

func window64(b core.Bounds) core.Scheduler { return core.NewCentralWindow(64, b) }

func fifos8x8(b core.Bounds) core.Scheduler {
	return core.NewFIFOBank(core.FIFOBankConfig{
		Name: "fifos", Clusters: 1, FIFOsPerCluster: 8, Depth: 8,
	}, b)
}

func mustProgram(t *testing.T, src string) *isa.Program {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runProgram(t *testing.T, c Config, p *isa.Program) Stats {
	t.Helper()
	sim, err := New(c, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// chainSrc builds a single serial dependence chain of n addi instructions.
func chainSrc(n int) string {
	var b strings.Builder
	b.WriteString("\t.text\n")
	for i := 0; i < n; i++ {
		b.WriteString("\taddi $t0, $t0, 1\n")
	}
	b.WriteString("\thalt\n")
	return b.String()
}

// independentSrc builds n mutually independent addi instructions.
func independentSrc(n int) string {
	regs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7"}
	var b strings.Builder
	b.WriteString("\t.text\n")
	for i := 0; i < n; i++ {
		b.WriteString("\taddi " + regs[i%len(regs)] + ", $zero, 1\n")
	}
	b.WriteString("\thalt\n")
	return b.String()
}

func TestDependentChainIssuesOnePerCycle(t *testing.T) {
	p := mustProgram(t, chainSrc(64))
	st := runProgram(t, cfg("base", 1, 0, window64), p)
	if st.Committed != 65 {
		t.Fatalf("committed %d, want 65", st.Committed)
	}
	// One chain link per cycle plus pipeline fill: ≈ 64 + small constant.
	if st.Cycles < 64 || st.Cycles > 80 {
		t.Errorf("cycles = %d, want ≈64–80 for a 64-deep dependence chain", st.Cycles)
	}
}

func TestIndependentInstructionsIssueWide(t *testing.T) {
	p := mustProgram(t, independentSrc(64))
	st := runProgram(t, cfg("base", 1, 0, window64), p)
	if st.Cycles > 20 {
		t.Errorf("cycles = %d, want ≤20 for 64 independent instructions at 8-wide", st.Cycles)
	}
	if ipc := st.IPC(); ipc < 3.5 {
		t.Errorf("IPC = %.2f, want ≥3.5", ipc)
	}
}

func TestIssueWidthBoundsIPC(t *testing.T) {
	p := mustProgram(t, independentSrc(256))
	c := cfg("narrow", 1, 0, window64)
	c.IssueWidth = 2
	c.FUsPerCluster = 2
	st := runProgram(t, c, p)
	if ipc := st.IPC(); ipc > 2.0 {
		t.Errorf("IPC = %.2f with issue width 2, want ≤2", ipc)
	}
}

func TestFIFOSchedulerMatchesWindowOnSeparableChains(t *testing.T) {
	// Two interleaved independent chains: dependence steering should put
	// each chain into its own FIFO and sustain the same throughput as a
	// flexible window.
	var b strings.Builder
	b.WriteString("\t.text\n")
	for i := 0; i < 32; i++ {
		b.WriteString("\taddi $t0, $t0, 1\n")
		b.WriteString("\taddi $t1, $t1, 1\n")
	}
	b.WriteString("\thalt\n")
	src := b.String()

	stWin := runProgram(t, cfg("win", 1, 0, window64), mustProgram(t, src))
	stFifo := runProgram(t, cfg("fifo", 1, 0, fifos8x8), mustProgram(t, src))
	if stFifo.Cycles > stWin.Cycles+4 {
		t.Errorf("FIFO cycles = %d vs window %d; separable chains should not slow down",
			stFifo.Cycles, stWin.Cycles)
	}
}

func TestFIFOHeadsOnlyLimitsReordering(t *testing.T) {
	// A long dependent chain followed by many independent instructions:
	// steering puts the chain in one FIFO; the independents use other
	// FIFOs and issue around it. Both schedulers should finish in similar
	// time, but the FIFO bank must never beat the window.
	src := chainSrc(40) // ends with halt
	stWin := runProgram(t, cfg("win", 1, 0, window64), mustProgram(t, src))
	stFifo := runProgram(t, cfg("fifo", 1, 0, fifos8x8), mustProgram(t, src))
	if stFifo.Cycles < stWin.Cycles {
		t.Errorf("FIFO bank (%d cycles) beat the flexible window (%d cycles)", stFifo.Cycles, stWin.Cycles)
	}
}

func TestLoadMissLatency(t *testing.T) {
	// A dependence chain through cold loads: every load misses (new line
	// each time), so each link costs the 6-cycle miss latency.
	src := `
		.text
		li   $t0, 0x40000
		lw   $t1, 0($t0)
		lw   $t2, 64($t1)
		lw   $t3, 128($t2)
		lw   $t4, 192($t3)
		halt
	`
	st := runProgram(t, cfg("base", 1, 0, window64), mustProgram(t, src))
	if st.Cache.Misses < 4 {
		t.Errorf("cache misses = %d, want ≥4 (cold chain)", st.Cache.Misses)
	}
	// 4 serial misses ≈ 24 cycles plus fill.
	if st.Cycles < 24 {
		t.Errorf("cycles = %d, want ≥24 for four serial misses", st.Cycles)
	}
}

func TestCacheHitsAreFast(t *testing.T) {
	// Serial loads that all hit the same line after the first.
	var b strings.Builder
	b.WriteString("\t.text\n\tli $t0, 0x40000\n")
	for i := 0; i < 16; i++ {
		b.WriteString("\tlw $t0, 0x40000($zero)\n")
	}
	b.WriteString("\thalt\n")
	st := runProgram(t, cfg("base", 1, 0, window64), mustProgram(t, b.String()))
	if st.Cache.Misses != 1 {
		t.Errorf("misses = %d, want 1", st.Cache.Misses)
	}
}

func TestLoadWaitsForPriorStoreAddress(t *testing.T) {
	// The store's address depends on a long chain; the (independent) load
	// must wait for the store to issue (Table 3: loads execute when all
	// prior store addresses are known).
	chain := func(withStore bool) string {
		var b strings.Builder
		b.WriteString("\t.text\n\tli $t0, 0x40000\n")
		for i := 0; i < 20; i++ {
			b.WriteString("\taddi $t0, $t0, 4\n")
		}
		if withStore {
			b.WriteString("\tsw $t1, 0($t0)\n")
		}
		b.WriteString("\tlw $t2, 0x50000($zero)\n")
		// A dependent chain hangs off the load, so delaying the load
		// delays the whole run.
		for i := 0; i < 20; i++ {
			b.WriteString("\taddi $t2, $t2, 1\n")
		}
		b.WriteString("\tout $t2\n\thalt\n")
		return b.String()
	}
	with := runProgram(t, cfg("w", 1, 0, window64), mustProgram(t, chain(true)))
	without := runProgram(t, cfg("wo", 1, 0, window64), mustProgram(t, chain(false)))
	if with.Cycles < without.Cycles+10 {
		t.Errorf("store-address dependence not enforced: %d cycles with store vs %d without",
			with.Cycles, without.Cycles)
	}
}

func TestMispredictionStallsFetch(t *testing.T) {
	// Data-dependent branches driven by LCG bits: hard to predict.
	src := `
		.text
		li   $s0, 500          # iterations
		li   $t0, 98765        # seed
		li   $t8, 1103515245
loop:	mul  $t0, $t0, $t8
		addi $t0, $t0, 12345
		srl  $t1, $t0, 16
		andi $t1, $t1, 1
		beq  $t1, $zero, skip
		addi $s1, $s1, 1
skip:	addi $s0, $s0, -1
		bgtz $s0, loop
		out  $s1
		halt
	`
	cPerfect := cfg("perfect", 1, 0, window64)
	cReal := cfg("gshare", 1, 0, window64)
	cReal.PerfectBPred = false
	perfect := runProgram(t, cPerfect, mustProgram(t, src))
	real := runProgram(t, cReal, mustProgram(t, src))
	if real.Mispredicts == 0 {
		t.Fatal("no mispredictions on LCG-driven branches")
	}
	if rate := real.MispredictRate(); rate < 0.10 {
		t.Errorf("mispredict rate = %.2f, want ≥0.10 on random branches", rate)
	}
	if real.Cycles <= perfect.Cycles {
		t.Errorf("mispredictions did not cost cycles: %d (gshare) vs %d (perfect)",
			real.Cycles, perfect.Cycles)
	}
}

func TestPredictableBranchesAreCheap(t *testing.T) {
	// A simple counted loop: gshare should predict nearly every iteration.
	src := `
		.text
		li   $s0, 400
loop:	addi $s1, $s1, 1
		addi $s0, $s0, -1
		bgtz $s0, loop
		out  $s1
		halt
	`
	c := cfg("gshare", 1, 0, window64)
	c.PerfectBPred = false
	st := runProgram(t, c, mustProgram(t, src))
	if rate := st.MispredictRate(); rate > 0.10 {
		t.Errorf("mispredict rate = %.2f on a counted loop, want ≤0.10", rate)
	}
}

func TestClusteredInterClusterBypassAccounting(t *testing.T) {
	// Random steering scatters a dependence chain across clusters; the
	// inter-cluster bypass frequency must be substantial and the run
	// slower than with dependence steering.
	randomSched := func(b core.Bounds) core.Scheduler {
		return core.NewFIFOBank(core.FIFOBankConfig{
			Name: "random", Clusters: 2, FIFOsPerCluster: 1, Depth: 32,
			AnySlot: true, Policy: core.SteerRandom,
		}, b)
	}
	depSched := func(b core.Bounds) core.Scheduler {
		return core.NewFIFOBank(core.FIFOBankConfig{
			Name: "dep", Clusters: 2, FIFOsPerCluster: 4, Depth: 8,
		}, b)
	}
	p := mustProgram(t, chainSrc(200))
	stRand := runProgram(t, cfg("rand", 2, 1, randomSched), p)
	stDep := runProgram(t, cfg("dep", 2, 1, depSched), mustProgram(t, chainSrc(200)))
	if f := stRand.InterClusterFrequency(); f < 0.20 {
		t.Errorf("random steering inter-cluster frequency = %.2f, want ≥0.20", f)
	}
	if f := stDep.InterClusterFrequency(); f > 0.05 {
		t.Errorf("dependence steering inter-cluster frequency = %.2f on a single chain, want ≈0", f)
	}
	if stRand.Cycles <= stDep.Cycles {
		t.Errorf("random steering (%d cycles) not slower than dependence steering (%d)",
			stRand.Cycles, stDep.Cycles)
	}
}

func TestInterClusterDelaySlowsScatteredChains(t *testing.T) {
	randomSched := func(b core.Bounds) core.Scheduler {
		return core.NewFIFOBank(core.FIFOBankConfig{
			Name: "random", Clusters: 2, FIFOsPerCluster: 1, Depth: 32,
			AnySlot: true, Policy: core.SteerRandom,
		}, b)
	}
	fast := runProgram(t, cfg("d0", 2, 0, randomSched), mustProgram(t, chainSrc(200)))
	slow := runProgram(t, cfg("d1", 2, 1, randomSched), mustProgram(t, chainSrc(200)))
	if slow.Cycles <= fast.Cycles {
		t.Errorf("inter-cluster delay had no cost: %d vs %d cycles", slow.Cycles, fast.Cycles)
	}
}

func TestCommittedMatchesFunctionalExecution(t *testing.T) {
	w, err := prog.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(cfg("base", 1, 0, window64), p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != sim.Machine().Executed {
		t.Errorf("committed %d != functionally executed %d", st.Committed, sim.Machine().Executed)
	}
	want := w.Reference()
	got := sim.Machine().Output
	if len(got) != len(want) {
		t.Fatalf("program output %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestDeterminism runs one workload twice on one configuration and
// requires every statistic DiffStats compares to match.
func TestDeterminism(t *testing.T) {
	p, err := prog.ByName("li")
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Program()
	if err != nil {
		t.Fatal(err)
	}
	run := func() Stats {
		sim, err := New(cfg("base", 1, 0, fifos8x8), pr)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := run()
	if err := DiffStats(run(), first); err != nil {
		t.Errorf("second run differs from the first: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg("ok", 1, 0, window64)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.NewScheduler = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil scheduler accepted")
	}
	bad = good
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = good
	bad.PhysRegs = 10
	if err := bad.Validate(); err == nil {
		t.Error("too few physical registers accepted")
	}
	// Cluster mismatch between scheduler and config.
	mismatch := cfg("mismatch", 2, 1, window64)
	if _, err := New(mismatch, mustProgram(t, chainSrc(4))); err == nil {
		t.Error("scheduler/config cluster mismatch accepted")
	}
}

func TestRetireWidthBoundsCommit(t *testing.T) {
	p := mustProgram(t, independentSrc(64))
	c := cfg("retire1", 1, 0, window64)
	c.RetireWidth = 1
	st := runProgram(t, c, p)
	// 65 instructions at 1 commit/cycle needs ≥65 cycles.
	if st.Cycles < 65 {
		t.Errorf("cycles = %d with retire width 1, want ≥65", st.Cycles)
	}
}

func TestPhysRegPressureStalls(t *testing.T) {
	p := mustProgram(t, independentSrc(256))
	c := cfg("fewregs", 1, 0, window64)
	c.PhysRegs = 40 // only 8 rename registers beyond the architectural 32
	st := runProgram(t, c, p)
	if st.PhysRegStalls == 0 {
		t.Error("no physical-register stalls with an 8-register margin")
	}
	wide := runProgram(t, cfg("wide", 1, 0, window64), mustProgram(t, independentSrc(256)))
	if st.Cycles <= wide.Cycles {
		t.Errorf("register pressure had no cost: %d vs %d cycles", st.Cycles, wide.Cycles)
	}
}

func TestCustomCacheConfig(t *testing.T) {
	c := cfg("tinycache", 1, 0, window64)
	c.DCache = cache.Config{SizeBytes: 1 << 10, Ways: 1, LineBytes: 32, HitCycles: 1, MissCycles: 6}
	// Strided loads across 8 KB thrash a 1 KB cache.
	var b strings.Builder
	b.WriteString("\t.text\n\tli $s0, 0\n")
	b.WriteString("loop:\tsll $t1, $s0, 6\n")
	b.WriteString("\tlw $t2, 0x40000($t1)\n")
	b.WriteString("\taddi $s0, $s0, 1\n")
	b.WriteString("\tli $t3, 128\n")
	b.WriteString("\tblt $s0, $t3, loop\n")
	b.WriteString("\thalt\n")
	st := runProgram(t, c, mustProgram(t, b.String()))
	if st.Cache.Misses < 100 {
		t.Errorf("misses = %d on a thrashing stride, want ≥100", st.Cache.Misses)
	}
}

func clustered2x4(b core.Bounds) core.Scheduler {
	return core.NewFIFOBank(core.FIFOBankConfig{
		Name: "fifos-2x4", Clusters: 2, FIFOsPerCluster: 4, Depth: 8,
	}, b)
}
