package ce

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/trace"
)

// simStatsCells lists the golden's design points: every Figure 13/15/17
// configuration on every workload; the window trade-off sizes (128 needs
// two 64-bit scheduler mask words) and the random-select ablation on two
// workloads.
func simStatsCells() []struct {
	cfg      Config
	workload string
} {
	type cell = struct {
		cfg      Config
		workload string
	}
	var cells []cell
	figs := []Config{
		BaselineConfig(), DependenceConfig(), ClusteredDependenceConfig(),
		WindowsDispatchConfig(), ExecSteeredConfig(), RandomSteerConfig(),
	}
	for _, w := range Workloads() {
		for _, c := range figs {
			cells = append(cells, cell{c, w})
		}
	}
	for _, w := range []string{"compress", "go"} {
		for _, size := range []int{16, 32, 128} {
			c := BaselineConfig()
			c.Name = fmt.Sprintf("win%d", size)
			spec := core.WindowSpec(size)
			c.Scheduler = &spec
			cells = append(cells, cell{c, w})
		}
		cells = append(cells, cell{table3("random-select", 1, 0, core.RandomSelectSpec(64)), w})
	}
	return cells
}

// formatSimStats renders every counter of one run, plus the FIFO bank's
// steering stalls, as one golden line.
func formatSimStats(cfg Config, st Stats, sched core.Scheduler) string {
	var noFIFO uint64
	if b, ok := sched.(*core.FIFOBank); ok {
		noFIFO = b.StallNoFIFO
	}
	var issued []string
	for v := 0; v <= cfg.IssueWidth; v++ {
		issued = append(issued, fmt.Sprint(st.IssuedPerCycle.Count(v)))
	}
	return fmt.Sprintf("%s %s cycles=%d committed=%d emu=%d cond=%d mispred=%d inter=%d fwd=%d squashed=%d"+
		" stalls=%d/%d/%d nofifo=%d dcache=%d/%d/%d icache=%d/%d/%d issued=%s",
		st.Config, st.Workload, st.Cycles, st.Committed, st.EmuSteps, st.CondBranches, st.Mispredicts,
		st.InterClusterUops, st.ForwardedLoads, st.SquashedUops,
		st.SchedulerStalls, st.PhysRegStalls, st.ROBStalls, noFIFO,
		st.Cache.Accesses, st.Cache.Misses, st.Cache.Writebacks,
		st.ICache.Accesses, st.ICache.Misses, st.ICache.Writebacks,
		strings.Join(issued, ","))
}

// TestGoldenSimStats pins every simulated counter — not just IPC — of
// the figure sweeps, the window trade-off and the selection-policy
// ablation, so a scheduler that drifts by a single cycle or stall shows
// up as a diff. Regenerate with `go test -run TestGoldenSimStats -update .`
// only for an intended change in simulated behavior.
func TestGoldenSimStats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	cells := simStatsCells()
	traces := map[string]*trace.Trace{}
	for _, c := range cells {
		if _, ok := traces[c.workload]; ok {
			continue
		}
		w, err := prog.ByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.Program()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Capture(p, maxCycles)
		if err != nil {
			t.Fatal(err)
		}
		traces[c.workload] = tr
	}

	lines := make([]string, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lines[i], errs[i] = simulateCell(cells[i].cfg, traces[cells[i].workload])
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s/%s: %v", cells[i].cfg.Name, cells[i].workload, err)
		}
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "simstats.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestGoldenSimStats -update .`): %v", err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("simulated stats drifted:\n got  %s\n want %s", line, w)
		}
	}
	if len(wantLines) != len(lines)+1 {
		t.Errorf("golden has %d lines, run produced %d", len(wantLines)-1, len(lines))
	}
}

// simulateCell times one design point by replaying tr.
func simulateCell(cfg Config, tr *trace.Trace) (string, error) {
	r := trace.NewReader(tr)
	defer r.Release()
	sim, err := pipeline.NewReplay(cfg, r)
	if err != nil {
		return "", err
	}
	st, err := sim.Run(maxCycles)
	if err != nil {
		return "", err
	}
	return formatSimStats(cfg, st, sim.Scheduler()), nil
}
