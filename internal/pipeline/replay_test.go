package pipeline

// Tests for the replay execution source: a simulator driven by a
// pre-captured trace must be statistically indistinguishable from one
// driving the functional emulator in lockstep, and a replay-driven run
// must allocate nothing once constructed. TestCycleLoopAllocationFree
// attributes the cycle loop's allocations site by site.

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

// replayConfigs covers both scheduler families plus the fetch features
// that interact with the source: icache probing (source PC) and
// fetch-break-on-taken.
func replayConfigs() []Config {
	window := cfg("window", 1, 0, window64)
	window.PerfectBPred = false
	fifos := cfg("fifos", 1, 0, fifos8x8)
	fifos.PerfectBPred = false
	fifos.FetchBreakOnTaken = true
	fifos.StoreForwarding = true
	return []Config{window, fifos}
}

func TestReplayMatchesLockstep(t *testing.T) {
	for _, name := range []string{"compress", "micro.branchy"} {
		w, err := prog.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Capture(p, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range replayConfigs() {
			exec := runProgram(t, c, p)
			sim, err := NewReplay(c, trace.NewReader(tr))
			if err != nil {
				t.Fatal(err)
			}
			replay, err := sim.Run(0)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, name, err)
			}
			if err := DiffStats(replay, exec); err != nil {
				t.Errorf("%s/%s: replay diverges from lockstep: %v", c.Name, name, err)
			}
			if sim.StateHash() != tr.StateHash() {
				t.Errorf("%s/%s: replay simulator state hash diverges", c.Name, name)
			}
			if sim.Machine() != nil {
				t.Errorf("%s/%s: replay simulator exposes a machine", c.Name, name)
			}
		}
	}
}

// TestReplayRunAllocationFree bounds a whole replay-driven simulation:
// construction allocates a bounded number of objects, and Run itself,
// as its Stats.HostAllocs measures, none.
func TestReplayRunAllocationFree(t *testing.T) {
	w, err := prog.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg("replay-alloc-guard", 1, 0, window64)
	c.PerfectBPred = false
	var st Stats
	run := func() {
		sim, err := NewReplay(c, trace.NewReader(tr))
		if err != nil {
			t.Fatal(err)
		}
		if st, err = sim.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
	}
	const maxPerRun = 2000
	allocs := testing.AllocsPerRun(5, run)
	if allocs > maxPerRun {
		t.Errorf("replay run allocates %.0f objects (limit %d): %.3f allocs/cycle over %d cycles",
			allocs, maxPerRun, allocs/float64(st.Cycles), st.Cycles)
	}
	if st.HostAllocs != 0 {
		t.Errorf("replay Run: Stats.HostAllocs = %d, want 0", st.HostAllocs)
	}
	if st.HostWallSeconds <= 0 {
		t.Errorf("replay Run: Stats.HostWallSeconds = %v, want > 0", st.HostWallSeconds)
	}
}
