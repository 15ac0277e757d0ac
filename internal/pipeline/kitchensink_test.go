package pipeline

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prog"
)

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

func TestKitchenSinkConfiguration(t *testing.T) {
	// Every optional feature at once: store forwarding, I-cache, fetch
	// break, ring topology on four clusters, pipelined wakeup+select and
	// late local bypass. The run must stay architecturally exact and
	// deterministic.
	mk := func() Config {
		c := cfg("kitchen-sink", 4, 1, func(b core.Bounds) core.Scheduler {
			return core.NewFIFOBank(core.FIFOBankConfig{
				Name: "sink", Clusters: 4, FIFOsPerCluster: 2, Depth: 8,
			}, b)
		})
		c.FUsPerCluster = 2
		c.PerfectBPred = false
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
			if err := DiffStats(st2, st); err != nil {
				t.Errorf("non-deterministic: %v", err)
			}
		})
	}
}
