package pipeline

// Tests for the allocation-free, event-driven fast path: the Uop pool,
// the ring-buffered pipeline queues, idle-cycle skipping, and the
// steady-state zero-allocation guarantee.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/prog"
)

// fastPathConfigs pairs the two scheduler families (central window and
// FIFO bank).
func fastPathConfigs() []Config {
	window := cfg("window", 1, 0, window64)
	fifos := cfg("fifos", 1, 0, fifos8x8)
	return []Config{window, fifos}
}

// TestCycleSkipIsTimingNeutral runs generated programs — including
// branch-heavy ones whose squashes land mid-window — with idle-cycle
// skipping on and off and requires identical timing and statistics.
// (The differential harness in internal/verify asserts the same across
// its whole panel and corpus; this is the in-package regression test.)
func TestCycleSkipIsTimingNeutral(t *testing.T) {
	seeds := []prog.RandomConfig{
		{Seed: 1},
		{Seed: 2, Branch: 6, ALU: 4, Load: 2, Store: 2},
		{Seed: 3, LoopDepth: 4, MemWords: 8, Size: 60},
		{Seed: 4, LoopDepth: 1, Load: 6, Store: 4, ALU: 4, Branch: 1, MemWords: 512, Size: 200},
	}
	for _, rc := range seeds {
		p, err := prog.Random(rc)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range fastPathConfigs() {
			for _, wrongPath := range []bool{false, true} {
				skip := base
				skip.PerfectBPred = false
				skip.WrongPathExecution = wrongPath
				noSkip := skip
				noSkip.NoCycleSkip = true
				a := runProgram(t, skip, p)
				b := runProgram(t, noSkip, p)
				a.Config, b.Config = "", ""
				a.HostAllocs, b.HostAllocs = 0, 0
				a.HostWallSeconds, b.HostWallSeconds = 0, 0
				if a.Cycles != b.Cycles || a.Committed != b.Committed ||
					a.Mispredicts != b.Mispredicts || a.SquashedUops != b.SquashedUops ||
					a.SchedulerStalls != b.SchedulerStalls || a.ROBStalls != b.ROBStalls ||
					a.PhysRegStalls != b.PhysRegStalls || a.Cache != b.Cache {
					t.Errorf("%s seed %d wrongPath=%v: skip %+v != no-skip %+v",
						base.Name, rc.Seed, wrongPath, a, b)
				}
				if got, want := a.IssuedPerCycle.Total(), uint64(a.Cycles); got != want {
					t.Errorf("%s seed %d: skipped cycles missing from issue histogram: %d recorded, %d cycles",
						base.Name, rc.Seed, got, want)
				}
				if a.IssuedPerCycle.Mean() != b.IssuedPerCycle.Mean() {
					t.Errorf("%s seed %d: issue histogram diverges with skipping", base.Name, rc.Seed)
				}
			}
		}
	}
}

// TestCycleSkipSkipsSomething drives a latency-bound workload — every
// loop-ending branch mispredicted (static taken predictor, not-taken
// branch) and resolved by a slow dependence chain with no bypass network
// — and checks the timing is skip-invariant on a program that is mostly
// idle cycles (the case skipping exists for).
func TestCycleSkipSkipsSomething(t *testing.T) {
	src := `
		.text
		li   $s0, 50
loop:	li   $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		addi $t1, $t1, 1
		beq  $t1, $zero, end
		addi $s0, $s0, -1
		bgtz $s0, loop
end:	out  $s0
		halt
	`
	p := mustProgram(t, src)
	c := cfg("skip", 1, 0, window64)
	c.PerfectBPred = false
	c.Predictor = "taken"
	c.LocalBypassExtra = 2 // operands only via the register file
	st := runProgram(t, c, p)
	c2 := c
	c2.NoCycleSkip = true
	st2 := runProgram(t, c2, p)
	if st.Cycles != st2.Cycles {
		t.Fatalf("cycle skip changed timing: %d vs %d cycles", st.Cycles, st2.Cycles)
	}
	if st.Mispredicts == 0 {
		t.Fatal("no mispredictions; the workload no longer exercises redirect stalls")
	}
	if st.Cycles < 2*int64(st.Committed) {
		t.Fatalf("workload not latency-bound enough to exercise skipping: %d cycles, %d committed",
			st.Cycles, st.Committed)
	}
}

// TestSteadyStateAllocationFree is the allocation guard: after warm-up,
// a full simulation of the baseline window configuration must perform
// (amortized) zero heap allocations per simulated cycle.
func TestSteadyStateAllocationFree(t *testing.T) {
	w, err := prog.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := cfg("alloc-guard", 1, 0, window64)
	c.PerfectBPred = false
	run := func() Stats {
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
	st := run()
	if st.Cycles < 1000 {
		t.Fatalf("guard program too small: %d cycles", st.Cycles)
	}
	// Each run constructs a fresh Simulator (caches, rename table,
	// predictor...), so per-run allocations are bounded by a constant;
	// the per-cycle amortized count must be ~0. With the old per-fetch
	// &core.Uop and per-cycle scratch slices this was > 5 allocs/cycle.
	const maxPerRun = 2000
	allocs := testing.AllocsPerRun(5, func() { run() })
	if allocs > maxPerRun {
		t.Errorf("simulation run allocates %.0f objects (limit %d): steady state is not allocation-free (%.3f allocs/cycle over %d cycles)",
			allocs, maxPerRun, allocs/float64(st.Cycles), st.Cycles)
	}
	// HostAllocs should agree with the direct measurement's order of
	// magnitude (it includes ReadMemStats noise, so just sanity-bound it).
	if st.HostAllocs > 100*maxPerRun {
		t.Errorf("Stats.HostAllocs = %d, want construction-bounded count", st.HostAllocs)
	}
	if st.HostWallSeconds <= 0 {
		t.Errorf("Stats.HostWallSeconds = %v, want > 0", st.HostWallSeconds)
	}
}

// figureSchedulers are the scheduler organizations of Figures 13, 15
// and 17 plus the random-select ablation, with their cluster counts.
func figureSchedulers() []struct {
	name     string
	clusters int
	spec     core.SchedulerSpec
} {
	bank := func(c, f, d int, any bool, p core.SteerPolicy) core.SchedulerSpec {
		return core.FIFOBankSpec(core.FIFOBankConfig{Clusters: c, FIFOsPerCluster: f, Depth: d, AnySlot: any, Policy: p})
	}
	return []struct {
		name     string
		clusters int
		spec     core.SchedulerSpec
	}{
		{"window", 1, core.WindowSpec(64)},
		{"fifos", 1, bank(1, 8, 8, false, core.SteerDependence)},
		{"clustered-fifos", 2, bank(2, 4, 8, false, core.SteerDependence)},
		{"windows-dispatch", 2, bank(2, 8, 4, true, core.SteerDependence)},
		{"exec-steer", 2, core.ExecSteeredSpec(64, 2)},
		{"windows-random", 2, bank(2, 1, 32, true, core.SteerRandom)},
		{"random-select", 1, core.RandomSelectSpec(64)},
	}
}

// TestCycleLoopAllocationFree is the exact form of the allocation guard:
// once a simulation is warm, stepping it allocates nothing at all, for
// every figure scheduler and the random-select ablation.
func TestCycleLoopAllocationFree(t *testing.T) {
	w, err := prog.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range figureSchedulers() {
		c := cfg(fs.name, fs.clusters, fs.clusters-1, nil)
		spec := fs.spec
		c.Scheduler = &spec
		c.PerfectBPred = false
		sim, err := New(c, p)
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			for i := 0; i < 2000; i++ {
				if err := sim.step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		step() // warm up pools, queues and scratch lists
		if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
			t.Errorf("%s: %.1f allocations per 2000 cycles in steady state, want 0", fs.name, allocs)
		}
		if sim.done() {
			t.Fatalf("%s: program finished during the guard; it no longer measures steady state", fs.name)
		}
	}
}

// TestUopPoolRecycles pins the free-list behavior: Get returns reset
// uops, retains PhysSrcs capacity, and Put/Get round-trips.
func TestUopPoolRecycles(t *testing.T) {
	var pool core.UopPool
	u := pool.Get()
	u.Seq = 42
	u.PhysSrcs = append(u.PhysSrcs, 1, 2)
	u.FIFO = 3
	u.Issued = true
	pool.Put(u)
	v := pool.Get()
	if v != u {
		t.Fatalf("pool did not recycle the uop")
	}
	if v.Seq != 0 || v.Issued || v.FIFO != 0 || len(v.PhysSrcs) != 0 {
		t.Fatalf("recycled uop not reset: %+v", v)
	}
	if cap(v.PhysSrcs) < 2 {
		t.Fatalf("recycled uop lost PhysSrcs capacity")
	}
	w := pool.Get()
	if w == v {
		t.Fatalf("pool returned an in-use uop")
	}
}
