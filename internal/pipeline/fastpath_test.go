package pipeline

// Tests for the allocation-free, event-driven fast path: the Uop pool,
// idle-cycle skipping, and the allocation guard over the cycle loop.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/trace"
)

// fastPathConfigs pairs the two scheduler families (central window and
// FIFO bank).
func fastPathConfigs() []Config {
	window := cfg("window", 1, 0, window64)
	fifos := cfg("fifos", 1, 0, fifos8x8)
	return []Config{window, fifos}
}

// TestCycleSkipIsTimingNeutral runs generated programs — including
// branch-heavy ones whose mispredictions stall fetch mid-window — with
// idle-cycle skipping on and off and requires identical timing and
// statistics.
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
			skip := base
			skip.PerfectBPred = false
			noSkip := skip
			noSkip.NoCycleSkip = true
			a := runProgram(t, skip, p)
			b := runProgram(t, noSkip, p)
			if err := DiffStats(a, b); err != nil {
				t.Errorf("%s seed %d: skip diverges from no-skip: %v", base.Name, rc.Seed, err)
			}
			if got, want := a.IssuedPerCycle.Total(), uint64(a.Cycles); got != want {
				t.Errorf("%s seed %d: skipped cycles missing from issue histogram: %d recorded, %d cycles",
					base.Name, rc.Seed, got, want)
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

// TestSteadyStateAllocationFree bounds a whole lockstep simulation of the
// baseline window configuration: construction allocates a bounded number
// of objects and the cycles after it (amortized) none. With the old
// per-fetch &core.Uop and per-cycle scratch slices this was > 5
// allocs/cycle.
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
	const maxPerRun = 2000
	allocs := testing.AllocsPerRun(5, func() { run() })
	if allocs > maxPerRun {
		t.Errorf("simulation run allocates %.0f objects (limit %d): steady state is not allocation-free (%.3f allocs/cycle over %d cycles)",
			allocs, maxPerRun, allocs/float64(st.Cycles), st.Cycles)
	}
	// HostAllocs counts only Run's own loop, after construction; the
	// lockstep emulator may grow its memory and output under it.
	if st.HostAllocs > maxPerRun {
		t.Errorf("Stats.HostAllocs = %d, want at most %d", st.HostAllocs, maxPerRun)
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

// guardVariants are the feature variants the allocation guard crosses
// with every workload and figure scheduler: each switches on a path the
// base configuration never runs (I-cache probing and store forwarding,
// the extra wakeup stage, ring bypass routing and fetch breaks).
var guardVariants = []struct {
	name string
	set  func(*Config)
}{
	{"base", func(*Config) {}},
	{"icache+stf", func(c *Config) {
		c.ICache = &cache.Config{SizeBytes: 1 << 10, Ways: 1, LineBytes: 32, HitCycles: 1, MissCycles: 6}
		c.StoreForwarding = true
	}},
	{"pipelined-ws", func(c *Config) { c.PipelinedWakeupSelect = true }},
	{"ring", func(c *Config) { c.RingTopology = true }},
	{"fetch-break", func(c *Config) { c.FetchBreakOnTaken = true }},
}

// guardCycles is how long the guard steps each combination (or until its
// program finishes).
const guardCycles = 20_000

// emuGrowthSites are the only functions the lockstep leg lets allocate
// under the cycle loop: the functional emulator growing its own data. It
// faults in a memory page (page) and appends program output (Step's only
// allocation).
var emuGrowthSites = map[string]bool{
	"repro/internal/emu.(*Machine).page": true,
	"repro/internal/emu.(*Machine).Step": true,
}

// TestCycleLoopAllocationFree is the allocation guard. For every workload,
// figure scheduler and guard variant it steps a fresh simulator from its
// first cycle and counts every heap allocation the cycle loop makes:
//   - replay-driven (NewReplay over a trace.Reader): none at all;
//   - lockstep (New): only at emuGrowthSites, each allocation attributed
//     to its site by a rate-1 memory profile.
//
// Everything else the loop touches is sized at construction, so a new
// allocation anywhere under step fails here.
func TestCycleLoopAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector slows the full guard twentyfold; run it without -race")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	g := allocGuard{prof: memProfile()}
	for _, name := range prog.ExtendedNames() {
		w, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Capture(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, fs := range figureSchedulers() {
			for _, v := range guardVariants {
				c := cfg(fs.name, fs.clusters, fs.clusters-1, nil)
				spec := fs.spec
				c.Scheduler = &spec
				c.PerfectBPred = false
				v.set(&c)
				label := name + "/" + fs.name + "/" + v.name
				sim, err := New(c, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range g.step(t, sim) {
					if !emuGrowthSites[s.fn] {
						t.Errorf("%s lockstep: %d allocations at %s (%s), outside the emulator's growth sites",
							label, s.n, s.fn, s.pos)
					}
				}
				if t.Failed() {
					t.FailNow() // every later combination would profile the same fault
				}
				sim, err = NewReplay(c, trace.NewReader(tr))
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range g.step(t, sim) {
					t.Errorf("%s replay: %d allocations at %s (%s), want none", label, s.n, s.fn, s.pos)
				}
				if t.Failed() {
					t.FailNow()
				}
			}
		}
	}
}

// allocGuard attributes the cycle loop's allocations. prof is the memory
// profile as last read; it is re-read only after a run allocated, so a
// clean run costs two ReadMemStats calls.
type allocGuard struct {
	prof map[[32]uintptr]int64
}

// allocSite is where the cycle loop allocated: the innermost frame
// outside the runtime, and how many objects it allocated there.
type allocSite struct {
	fn, pos string
	n       int64
}

// step runs sim from its current cycle for guardCycles cycles (or until
// it finishes) and returns the sites of every allocation made under
// (*Simulator).step.
func (g *allocGuard) step(t *testing.T, sim *Simulator) []allocSite {
	t.Helper()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < guardCycles && !sim.done(); i++ {
		if err := sim.step(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	if ms.Mallocs == before {
		return nil
	}
	prev := g.prof
	g.prof = memProfile()
	var sites []allocSite
	for stk, n := range g.prof { // only the order of failure messages depends on map order
		if d := n - prev[stk]; d > 0 {
			if s, ok := stepSite(stk); ok {
				s.n = d
				sites = append(sites, s)
			}
		}
	}
	return sites
}

// memProfile returns the allocation counts of the current memory
// profile, by stack. The GC publishes every allocation made before it.
func memProfile() map[[32]uintptr]int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	prof := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		prof[r.Stack0] += r.AllocObjects
	}
	return prof
}

// stepSite resolves an allocation stack to its site, reporting false
// when the stack does not pass through (*Simulator).step.
func stepSite(stk [32]uintptr) (allocSite, bool) {
	pcs := stk[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var site allocSite
	underStep := false
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		runtimeFrame := strings.HasPrefix(f.Function, "runtime.") || strings.HasPrefix(f.Function, "internal/")
		if site.fn == "" && !runtimeFrame {
			site.fn, site.pos = f.Function, fmt.Sprintf("%s:%d", f.File, f.Line)
		}
		if f.Function == "repro/internal/pipeline.(*Simulator).step" {
			underStep = true
		}
		if !more {
			break
		}
	}
	return site, underStep
}

// TestUopPoolRecycles pins the free-list behavior: Get returns reset
// uops, retains the two-source PhysSrcs array, Put/Get round-trips, and
// the pool neither grows past its bound nor hands out more than it holds.
func TestUopPoolRecycles(t *testing.T) {
	pool := core.NewUopPool(2)
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
	if cap(v.PhysSrcs) != 2 {
		t.Fatalf("recycled uop has PhysSrcs capacity %d, want 2", cap(v.PhysSrcs))
	}
	w := pool.Get()
	if w == v {
		t.Fatalf("pool returned an in-use uop")
	}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("Get on an empty pool", func() { pool.Get() })
	pool.Put(v)
	pool.Put(w)
	expectPanic("Put on a full pool", func() { pool.Put(w) })
}
