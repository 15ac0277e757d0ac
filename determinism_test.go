package ce

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

// determinismRuns is how many times TestResultsDeterministic renders
// each figure at each GOMAXPROCS setting. Go randomizes the order of
// every map range, so a map range whose order reaches Stats shows up as
// a cell that differs between two renderings. A two-key map range
// seeded into Simulator.Run failed the test in 10 of 10 runs at one
// rendering per setting, both when it touched every configuration and
// when it touched only Figure 13's dependence-based machine.
const determinismRuns = 1

// TestResultsDeterministic renders Figures 13, 15 and 17, and Figure 13
// phase-sampled at (16, 4), each on a fresh engine, determinismRuns
// times at GOMAXPROCS 1 and as often at 4. Every cell of every rendering
// must equal the first rendering's through pipeline.DiffStats: labels,
// cycles, every counter and every issue-histogram bucket. A result that
// depends on map order, the host clock or goroutine scheduling fails it.
// The first rendering of each exact figure must in turn equal lockstep
// execution (Run) cell for cell, so trace replay, the engine's only
// drive mode, can change how fast a result is computed but never the
// result.
func TestResultsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every figure on fresh engines")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; CI runs it without -race")
	}
	figs := []struct {
		name    string
		run     func(*Engine) (*IPCComparison, error)
		sampled bool
	}{
		{"figure13", (*Engine).Figure13, false},
		{"figure15", (*Engine).Figure15, false},
		{"figure17", (*Engine).Figure17, false},
		{"figure13 sampled", (*Engine).Figure13, true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	first := make([]*IPCComparison, len(figs))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 1; run <= determinismRuns; run++ {
			for i, fig := range figs {
				eng := NewEngine()
				if fig.sampled {
					if err := eng.SetPhaseSampling(16, 4); err != nil {
						t.Fatal(err)
					}
				}
				got, err := fig.run(eng)
				if err != nil {
					t.Fatalf("%s: %v", fig.name, err)
				}
				want := first[i]
				if want == nil {
					first[i] = got
					continue
				}
				for ci := range want.Results {
					for wi, w := range want.Workloads {
						if err := pipeline.DiffStats(got.Results[ci][wi], want.Results[ci][wi]); err != nil {
							t.Fatalf("%s, GOMAXPROCS=%d, run %d: %s on %s differs from the first run: %v",
								fig.name, procs, run, want.Configs[ci].Name, w, err)
						}
					}
				}
			}
		}
	}
	// One goroutine per figure row: the lockstep runs are independent.
	var wg sync.WaitGroup
	for i, fig := range figs {
		if fig.sampled {
			continue
		}
		res := first[i]
		for ci, cfg := range res.Configs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for wi, w := range res.Workloads {
					want, err := Run(cfg, w)
					if err != nil {
						t.Errorf("%s: lockstep %s on %s: %v", fig.name, cfg.Name, w, err)
						continue
					}
					if err := pipeline.DiffStats(res.Results[ci][wi], want); err != nil {
						t.Errorf("%s: %s on %s: replay differs from lockstep: %v", fig.name, cfg.Name, w, err)
					}
				}
			}()
		}
	}
	wg.Wait()
}
