package pipeline

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prog"
)

// wpCfg returns a gshare baseline with wrong-path execution toggled.
func wpCfg(name string, wrongPath bool) Config {
	c := cfg(name, 1, 0, window64)
	c.PerfectBPred = false
	c.WrongPathExecution = wrongPath
	return c
}

func runWorkload(t *testing.T, c Config, workload string) (Stats, *Simulator) {
	t.Helper()
	w, err := prog.ByName(workload)
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
	st, err := sim.Run(100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return st, sim
}

func TestWrongPathArchitecturallyInvisible(t *testing.T) {
	// The definitive correctness test: with wrong-path execution the
	// committed stream and program outputs must be identical to the
	// functional reference — every speculative effect rolled back.
	for _, workload := range []string{"micro.branchy", "li", "compress"} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			w, err := prog.ByName(workload)
			if err != nil {
				t.Fatal(err)
			}
			st, sim := runWorkload(t, wpCfg("wp", true), workload)
			if st.SquashedUops == 0 {
				t.Fatal("no squashed uops on a mispredicting workload")
			}
			want := w.Reference()
			got := sim.Machine().Output
			if len(got) != len(want) {
				t.Fatalf("output %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("output[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			// Committed = architectural instruction count: compare with a
			// stall-mode run of the same program.
			stall, _ := runWorkload(t, wpCfg("stall", false), workload)
			if st.Committed != stall.Committed {
				t.Errorf("committed %d (wrong-path) vs %d (stall)", st.Committed, stall.Committed)
			}
			if st.Mispredicts != stall.Mispredicts {
				t.Errorf("mispredicts %d (wrong-path) vs %d (stall): predictor training diverged",
					st.Mispredicts, stall.Mispredicts)
			}
		})
	}
}

func TestWrongPathPollutesCache(t *testing.T) {
	// Wrong-path loads access the data cache; with speculation on, the
	// cache sees at least as many accesses.
	wp, _ := runWorkload(t, wpCfg("wp", true), "micro.branchy")
	stall, _ := runWorkload(t, wpCfg("stall", false), "micro.branchy")
	if wp.Cache.Accesses < stall.Cache.Accesses {
		t.Errorf("wrong-path run made fewer cache accesses (%d) than stall run (%d)",
			wp.Cache.Accesses, stall.Cache.Accesses)
	}
	if wp.SquashedUops == 0 {
		t.Error("no squashes recorded")
	}
}

func TestWrongPathWorksWithFIFOScheduler(t *testing.T) {
	c := wpCfg("wp-fifo", true)
	c.NewScheduler = fifos8x8
	w, err := prog.ByName("micro.branchy")
	if err != nil {
		t.Fatal(err)
	}
	st, sim := runWorkload(t, c, "micro.branchy")
	if st.SquashedUops == 0 {
		t.Fatal("no squashed uops")
	}
	want := w.Reference()
	got := sim.Machine().Output
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestWrongPathClusteredDeterminism(t *testing.T) {
	mk := func() Config {
		cc := wpCfg("wp-clustered", true)
		cc.Clusters = 2
		cc.FUsPerCluster = 4
		cc.InterClusterDelay = 1
		cc.NewScheduler = clustered2x4
		return cc
	}
	a, _ := runWorkload(t, mk(), "gcc")
	b, _ := runWorkload(t, mk(), "gcc")
	if a.Cycles != b.Cycles || a.Committed != b.Committed || a.SquashedUops != b.SquashedUops {
		t.Errorf("non-deterministic wrong-path run: %+v vs %+v", a, b)
	}
	if a.SquashedUops == 0 {
		t.Error("no squashes on gcc")
	}
}

func TestWrongPathOffPathDeadEnd(t *testing.T) {
	// A misprediction whose wrong path immediately runs off the end of
	// the text segment: speculation must idle gracefully, then recover.
	src := `
		.text
		li   $s0, 200
		li   $t0, 98765
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
	c := wpCfg("deadend", true)
	p := mustProgram(t, src)
	sim, err := New(c, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed == 0 || st.Mispredicts == 0 {
		t.Fatalf("run did not exercise mispredictions: %+v", st)
	}
}

func TestKitchenSinkConfiguration(t *testing.T) {
	// Every optional feature at once: wrong-path execution, store
	// forwarding, I-cache, fetch break, ring topology on four clusters,
	// pipelined wakeup+select and late local bypass. The run must stay
	// architecturally exact and deterministic.
	mk := func() Config {
		c := cfg("kitchen-sink", 4, 1, func(b core.Bounds) core.Scheduler {
			return core.NewFIFOBank(core.FIFOBankConfig{
				Name: "sink", Clusters: 4, FIFOsPerCluster: 2, Depth: 8,
			}, b)
		})
		c.FUsPerCluster = 2
		c.PerfectBPred = false
		c.WrongPathExecution = true
		c.StoreForwarding = true
		c.FetchBreakOnTaken = true
		c.RingTopology = true
		c.PipelinedWakeupSelect = true
		c.LocalBypassExtra = 1
		ic := cache.Config{SizeBytes: 8 << 10, Ways: 2, LineBytes: 32, HitCycles: 1, MissCycles: 6}
		c.ICache = &ic
		c.RecordTimeline = false
		return c
	}
	for _, workload := range []string{"micro.branchy", "vortex"} {
		workload := workload
		t.Run(workload, func(t *testing.T) {
			w, err := prog.ByName(workload)
			if err != nil {
				t.Fatal(err)
			}
			st, sim := runWorkload(t, mk(), workload)
			want := w.Reference()
			got := sim.Machine().Output
			if len(got) != len(want) {
				t.Fatalf("output %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("output[%d] = %d, want %d", i, got[i], want[i])
				}
			}
			if st.Committed != sim.Machine().Executed {
				t.Errorf("committed %d != executed %d", st.Committed, sim.Machine().Executed)
			}
			st2, _ := runWorkload(t, mk(), workload)
			if st.Cycles != st2.Cycles || st.SquashedUops != st2.SquashedUops {
				t.Errorf("non-deterministic: %d/%d vs %d/%d cycles/squashes",
					st.Cycles, st.SquashedUops, st2.Cycles, st2.SquashedUops)
			}
		})
	}
}
