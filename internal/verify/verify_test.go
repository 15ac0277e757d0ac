package verify

import (
	"os"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/prog"
)

func TestPanelIsDiverse(t *testing.T) {
	panel := Panel()
	if len(panel) < 6 {
		t.Fatalf("panel has %d configurations, want at least 6", len(panel))
	}
	seen := map[string]bool{}
	for _, c := range panel {
		if seen[c.Name] {
			t.Errorf("duplicate panel configuration %q", c.Name)
		}
		seen[c.Name] = true
		if !c.CheckInvariants {
			t.Errorf("panel configuration %q runs without the invariant checker", c.Name)
		}
	}
	var clustered, fifo, icache bool
	for _, c := range panel {
		clustered = clustered || c.Clusters > 1
		fifo = fifo || (c.Scheduler != nil && c.Scheduler.FIFO.FIFOsPerCluster > 0)
		icache = icache || c.ICache != nil
	}
	if !clustered || !fifo || !icache {
		t.Errorf("panel misses a mechanism: clustered=%v fifo=%v icache=%v",
			clustered, fifo, icache)
	}
}

// TestDifferentialSeededCorpus is the deterministic heart of the
// harness: 50 generated programs, spanning loop depths, footprints and
// instruction mixes, each run through the full panel.
func TestDifferentialSeededCorpus(t *testing.T) {
	start := time.Now()
	corpus := make([]prog.RandomConfig, 0, 50)
	for seed := int64(0); seed < 35; seed++ {
		corpus = append(corpus, prog.RandomConfig{Seed: seed})
	}
	for seed := int64(0); seed < 5; seed++ {
		// Deep loops over a tiny footprint: store/load collisions.
		corpus = append(corpus, prog.RandomConfig{Seed: 100 + seed, LoopDepth: 4, MemWords: 8, Size: 60})
		// Branch-heavy: mispredictions dominate.
		corpus = append(corpus, prog.RandomConfig{Seed: 200 + seed, Branch: 6, ALU: 4, Load: 2, Store: 2})
		// Memory-heavy straight-line code over a large footprint.
		corpus = append(corpus, prog.RandomConfig{Seed: 300 + seed, LoopDepth: 1, Load: 6, Store: 4, ALU: 4, Branch: 1, MemWords: 512, Size: 200})
	}
	if len(corpus) != 50 {
		t.Fatalf("corpus has %d entries, want 50", len(corpus))
	}
	for _, rc := range corpus {
		rc := rc
		if err := CheckSeed(rc); err != nil {
			t.Errorf("%+v:\n%v", rc, err)
		}
	}
	if d := time.Since(start); d > 60*time.Second {
		t.Errorf("corpus took %v, budget 60s", d)
	}
}

// TestCheckStreamed pins the two capture paths: trace-directory
// capture ≡ anonymous capture, and monolithic replay from each ≡ per
// configuration.
func TestCheckStreamed(t *testing.T) {
	if err := CheckStreamed("micro.branchy", t.TempDir()); err != nil {
		t.Error(err)
	}
}

// TestCheckClosesTraces pins that Check releases the trace it captures:
// every capture holds an open file, so a leak would cost FuzzDifferential
// one descriptor per input.
func TestCheckClosesTraces(t *testing.T) {
	p, err := prog.Random(prog.RandomConfig{Seed: 1, Size: 40})
	if err != nil {
		t.Fatal(err)
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open descriptors: %v", err)
		}
		return len(fds)
	}
	// With the collector off, no finalizer can close a leaked file
	// behind the test's back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := openFDs()
	for i := 0; i < 50; i++ {
		if err := Check(p, Panel()); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(); after > before {
		t.Errorf("50 Check calls left %d more open descriptors (%d → %d)", after-before, before, after)
	}
}
