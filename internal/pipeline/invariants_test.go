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
// scheduler organization and front-end feature with the checker armed: a
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
		{"icache-forwarding", func() Config {
			c := invCfg("ic", 1, 0, fifos8x8)
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

// lyingWindow under-reports its occupancy — the kind of scheduler bug
// the checker exists to catch.
type lyingWindow struct{ core.Scheduler }

func (w lyingWindow) Len() int {
	if n := w.Scheduler.Len(); n > 0 {
		return n - 1
	}
	return 0
}

// TestCheckerDetectsSchedulerBugs proves the checker is not vacuous: a
// scheduler whose occupancy disagrees with the ROB must fail the run with
// a diagnosis.
func TestCheckerDetectsSchedulerBugs(t *testing.T) {
	w, err := prog.ByName("micro.branchy")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	c := invCfg("lying", 1, 0, nil)
	c.NewScheduler = func(b core.Bounds) core.Scheduler { return lyingWindow{core.NewCentralWindow(64, b)} }
	sim, err := New(c, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(10_000_000); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Errorf("occupancy-lying scheduler passed the checker: %v", err)
	}
}
