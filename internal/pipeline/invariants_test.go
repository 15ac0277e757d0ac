package pipeline

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prog"
)

// invCfg returns a gshare configuration with invariant checking on.
func invCfg(name string, clusters, interDelay int, sched func(b core.Bounds) core.Scheduler) Config {
	c := cfg(name, clusters, interDelay, sched)
	c.PerfectBPred = false
	c.CheckInvariants = true
	return c
}

// TestInvariantsHoldAcrossOrganizations runs real workloads through every
// scheduler organization and speculation model with the checker armed: a
// clean pass means the machine upheld ordering, width, readiness and
// balance invariants on every cycle.
func TestInvariantsHoldAcrossOrganizations(t *testing.T) {
	clustered := func(b core.Bounds) core.Scheduler {
		return core.NewFIFOBank(core.FIFOBankConfig{
			Name: "fifos-2x4", Clusters: 2, FIFOsPerCluster: 4, Depth: 8,
		}, b)
	}
	cases := []struct {
		name string
		mk   func() Config
	}{
		{"window", func() Config { return invCfg("window", 1, 0, window64) }},
		{"fifos", func() Config { return invCfg("fifos", 1, 0, fifos8x8) }},
		{"clustered", func() Config {
			c := invCfg("clustered", 2, 1, clustered)
			return c
		}},
		{"pipelined-wakeup", func() Config {
			c := invCfg("pws", 1, 0, window64)
			c.PipelinedWakeupSelect = true
			c.LocalBypassExtra = 1
			return c
		}},
		{"wrong-path", func() Config {
			c := invCfg("wp", 1, 0, window64)
			c.WrongPathExecution = true
			return c
		}},
		{"wrong-path-icache-forwarding", func() Config {
			c := invCfg("wp-ic", 1, 0, fifos8x8)
			c.WrongPathExecution = true
			c.StoreForwarding = true
			c.FetchBreakOnTaken = true
			ic := cache.Config{SizeBytes: 4 << 10, Ways: 2, LineBytes: 32, HitCycles: 1, MissCycles: 8}
			c.ICache = &ic
			return c
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, workload := range []string{"micro.branchy", "compress"} {
				st, _ := runWorkload(t, tc.mk(), workload)
				if st.Committed == 0 {
					t.Fatalf("%s: nothing committed", workload)
				}
			}
		})
	}
}

// squashlessBank ignores Squash, leaving wrong-path uops buffered — the
// kind of scheduler bug the checker exists to catch.
type squashlessBank struct{ core.Scheduler }

func (s squashlessBank) Squash(afterSeq uint64) {}

// lyingWindow under-reports its occupancy.
type lyingWindow struct{ core.Scheduler }

func (w lyingWindow) Len() int {
	if n := w.Scheduler.Len(); n > 0 {
		return n - 1
	}
	return 0
}

// TestCheckerDetectsSchedulerBugs proves the checker is not vacuous: a
// scheduler that drops its Squash obligation, and one whose occupancy
// disagrees with the ROB, must both fail the run with a diagnosis.
func TestCheckerDetectsSchedulerBugs(t *testing.T) {
	run := func(c Config) error {
		w, err := prog.ByName("micro.branchy")
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(c, p)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sim.Run(10_000_000)
		return err
	}

	c := invCfg("squashless", 1, 0, nil)
	c.NewScheduler = func(b core.Bounds) core.Scheduler { return squashlessBank{core.NewCentralWindow(64, b)} }
	c.WrongPathExecution = true
	err := run(c)
	if err == nil || !strings.Contains(err.Error(), "invariant violated") {
		t.Errorf("squash-dropping scheduler passed the checker: %v", err)
	}

	c = invCfg("lying", 1, 0, nil)
	c.NewScheduler = func(b core.Bounds) core.Scheduler { return lyingWindow{core.NewCentralWindow(64, b)} }
	err = run(c)
	if err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("occupancy-lying scheduler passed the checker: %v", err)
	}
}

// TestSquashCancelsWrongPathFetchStall pins the post-squash fetch
// behaviour with an instruction cache: a wrong-path fetch that misses
// starts a long stall, but the branch redirect must cancel it — the
// architectural path pays for its own refetch (cache pollution is real)
// and nothing more.
//
// The loop branch is trained taken to a far target on another cache
// line; its final not-taken execution mispredicts, so wrong-path fetch
// probes the far line, misses (one-line cache) and blocks fetch for
// MissCycles. Without the cancellation, the instruction after the
// branch inherits that stall on top of its own refetch miss, roughly
// doubling its fetch delay.
func TestSquashCancelsWrongPathFetchStall(t *testing.T) {
	const miss = 64
	src := `
		.text
main:	li   $s0, 12
loop:	addi $s0, $s0, -1
		bne  $s0, $zero, far
		out  $s0
		halt
		nop
		nop
		nop
		nop
		nop
		nop
		nop
		nop
far:	addi $t0, $t0, 1
		j    loop
`
	c := invCfg("squash-icache", 1, 0, window64)
	c.WrongPathExecution = true
	c.RecordTimeline = true
	// One 32-byte line: every cross-line fetch misses, so the final
	// misprediction's wrong-path probe of the far line always stalls.
	ic := cache.Config{SizeBytes: 32, Ways: 1, LineBytes: 32, HitCycles: 1, MissCycles: miss}
	c.ICache = &ic

	p := mustProgram(t, src)
	sim, err := New(c, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Note SquashedUops may be zero: the wrong-path stall itself keeps any
	// wrong-path instruction from being fetched before the branch resolves.
	if st.Mispredicts == 0 {
		t.Fatalf("no misprediction recorded")
	}

	// Locate the final (not-taken, mispredicted) branch and the out that
	// commits right after it.
	tl := sim.Timeline()
	last := -1
	for i, e := range tl {
		if e.Inst.IsConditional() {
			last = i
		}
	}
	if last < 0 || last+1 >= len(tl) {
		t.Fatalf("no conditional branch followed by a committed instruction in timeline")
	}
	br, next := tl[last], tl[last+1]
	// The architectural refetch pays one miss of its own (the wrong-path
	// probe evicted the line). Inheriting the wrong-path stall too would
	// push the delay toward 2×miss.
	if delay := next.Fetch - br.Complete; delay > miss+16 {
		t.Errorf("post-squash fetch delayed %d cycles after branch resolution; "+
			"want ≤ %d (one refetch miss) — wrong-path stall inherited?", delay, miss+16)
	}
}
