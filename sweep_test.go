package ce

import (
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

// TestEngineMemoizesAcrossMatrices is the tentpole's core guarantee:
// a (config, workload) pair revisited by later sweeps — even under a
// different display name — is simulated exactly once per engine.
func TestEngineMemoizesAcrossMatrices(t *testing.T) {
	eng := NewEngine()
	ws := []string{"micro.chain", "micro.parallel"}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, ws); err != nil {
		t.Fatal(err)
	}
	cs := eng.CacheStats()
	if cs.Misses != 2 || cs.Saved() != 0 {
		t.Fatalf("first matrix: %+v", cs)
	}
	// Rename the identical machine (Figure 17's "1cluster-1window" trick).
	renamed := BaselineConfig()
	renamed.Name = "1cluster-1window"
	res, err := eng.RunMatrix([]Config{renamed}, ws)
	if err != nil {
		t.Fatal(err)
	}
	cs = eng.CacheStats()
	if cs.Misses != 2 {
		t.Errorf("renamed twin re-simulated: %+v", cs)
	}
	if cs.Saved() != 2 {
		t.Errorf("expected 2 saved runs, got %+v", cs)
	}
	// The recalled result is relabeled for its new configuration.
	if res[0][0].Config != "1cluster-1window" {
		t.Errorf("cached stats kept stale label %q", res[0][0].Config)
	}

	// A different machine is not served from the cache.
	if _, err := eng.RunMatrix([]Config{DependenceConfig()}, ws[:1]); err != nil {
		t.Fatal(err)
	}
	if cs = eng.CacheStats(); cs.Misses != 3 {
		t.Errorf("distinct config did not miss: %+v", cs)
	}
}

// TestEngineDuplicatesWithinOneMatrix exercises single-flight coalescing:
// identical pairs inside one parallel matrix must still simulate once.
func TestEngineDuplicatesWithinOneMatrix(t *testing.T) {
	eng := NewEngine()
	a := BaselineConfig()
	b := BaselineConfig()
	b.Name = "baseline-twin"
	res, err := eng.RunMatrix([]Config{a, b}, []string{"micro.chain"})
	if err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 1 || cs.Saved() != 1 {
		t.Errorf("duplicate pair not coalesced: %+v", cs)
	}
	if res[0][0].Cycles != res[1][0].Cycles {
		t.Errorf("twins diverged: %d vs %d cycles", res[0][0].Cycles, res[1][0].Cycles)
	}
}

// TestEngineObserverAndMetrics checks the observability seam: every run
// (fresh or cached) is reported to the observer.
func TestEngineObserverAndMetrics(t *testing.T) {
	eng := NewEngine()
	var mu sync.Mutex
	var seen []RunMetrics
	eng.SetObserver(func(m RunMetrics) {
		mu.Lock()
		seen = append(seen, m)
		mu.Unlock()
	})
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.chain"}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.chain"}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("observer saw %d runs, want 2", len(seen))
	}
	if seen[0].Cached || !seen[1].Cached {
		t.Errorf("cached flags = %v, %v; want false, true", seen[0].Cached, seen[1].Cached)
	}
	first := seen[0]
	if first.Cycles <= 0 || first.IPC <= 0 || first.WallSeconds <= 0 || first.MCyclesPerSec <= 0 {
		t.Errorf("degenerate metrics for fresh run: %+v", first)
	}
}

// recordRuns installs an observer on eng and returns a function giving
// every run reported so far, in completion order.
func recordRuns(eng *Engine) func() []RunMetrics {
	var (
		mu   sync.Mutex
		runs []RunMetrics
	)
	eng.SetObserver(func(m RunMetrics) {
		mu.Lock()
		runs = append(runs, m)
		mu.Unlock()
	})
	return func() []RunMetrics {
		mu.Lock()
		defer mu.Unlock()
		return append([]RunMetrics(nil), runs...)
	}
}

// TestEngineDiskCache checks -cache-dir semantics: a fresh engine over
// the same directory recalls results without simulating.
func TestEngineDiskCache(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "runs")
	eng := NewEngine()
	if err := eng.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	res1, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.chain"})
	if err != nil {
		t.Fatal(err)
	}

	eng2 := NewEngine()
	if err := eng2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.RunMatrix([]Config{BaselineConfig()}, []string{"micro.chain"})
	if err != nil {
		t.Fatal(err)
	}
	cs := eng2.CacheStats()
	if cs.DiskHits != 1 || cs.Misses != 0 {
		t.Errorf("second engine stats = %+v, want 1 disk hit", cs)
	}
	if err := pipeline.DiffStats(res2[0][0], res1[0][0]); err != nil {
		t.Errorf("disk-recalled stats diverge: %v", err)
	}
}

// TestRunMatrixErrorPropagation: a failing pair must fail the matrix —
// never a silent zero Stats row.
func TestRunMatrixErrorPropagation(t *testing.T) {
	eng := NewEngine()
	bad := BaselineConfig()
	bad.Name = "malformed"
	bad.MaxInFlight = 0 // rejected by Config.Validate when the simulator is built
	if _, err := eng.RunMatrix([]Config{BaselineConfig(), bad}, []string{"micro.chain"}); err == nil {
		t.Error("matrix with malformed config succeeded")
	}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.chain", "nonesuch"}); err == nil {
		t.Error("matrix with unknown workload succeeded")
	}
	// Errors must also surface when the failing pair is already memoized.
	if _, err := eng.RunMatrix([]Config{bad}, []string{"micro.chain"}); err == nil {
		t.Error("memoized failure returned success")
	}
}

// TestRunMatrixFirstErrorDeterministic: with several failing pairs the
// matrix must always report the first one in matrix order, not whichever
// worker lost the race — sweep callers surface the error to users, and a
// nondeterministic message turns one bug into an apparent flaky suite.
func TestRunMatrixFirstErrorDeterministic(t *testing.T) {
	// Two structurally distinct malformed configs (distinct cache keys),
	// so each carries its own error message.
	first := BaselineConfig()
	first.Name = "bad-first"
	first.MaxInFlight = 0 // rejected by Config.Validate when the simulator is built
	second := BaselineConfig()
	second.Name = "bad-second"
	second.FetchQueueSize = 0 // also rejected, with a different message
	for i := 0; i < 20; i++ {
		eng := NewEngine()
		_, err := eng.RunMatrix([]Config{first, second}, []string{"micro.chain"})
		if err == nil {
			t.Fatal("matrix with two malformed configs succeeded")
		}
		if !strings.Contains(err.Error(), "bad-first") {
			t.Fatalf("iteration %d: got error for a later pair: %v", i, err)
		}
	}
}

// TestRunMatrixConcurrentEngines hammers one engine from several
// goroutines; run under -race this is the satellite's race-cleanliness
// check for the worker pool and cache.
func TestRunMatrixConcurrentEngines(t *testing.T) {
	eng := NewEngine()
	eng.SetObserver(func(RunMetrics) {})
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	ws := []string{"micro.chain", "micro.parallel"}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := eng.RunMatrix(cfgs, ws)
			if err != nil {
				errs <- err
				return
			}
			if res[0][0].Committed == 0 || res[1][1].Committed == 0 {
				errs <- errEmptyRow
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 4 {
		t.Errorf("4 unique pairs, %d misses: %+v", cs.Misses, cs)
	}
}

type emptyRowError struct{}

func (emptyRowError) Error() string { return "zero Stats row in successful matrix" }

var errEmptyRow = emptyRowError{}

// TestSpeedupEstimateReusesFigure15 verifies the satellite claim: after
// Figure 15 has run, SpeedupEstimate performs zero additional
// simulations — its whole matrix is served from the shared pool.
func TestSpeedupEstimateReusesFigure15(t *testing.T) {
	if _, err := Figure15(); err != nil {
		t.Fatal(err)
	}
	before := DefaultEngine.CacheStats()
	if _, _, err := SpeedupEstimate(); err != nil {
		t.Fatal(err)
	}
	after := DefaultEngine.CacheStats()
	if after.Misses != before.Misses || after.Uncacheable != before.Uncacheable {
		t.Errorf("SpeedupEstimate simulated %d extra runs (uncacheable +%d)",
			after.Misses-before.Misses, after.Uncacheable-before.Uncacheable)
	}
	if served := after.Saved() - before.Saved(); served != uint64(2*len(Workloads())) {
		t.Errorf("SpeedupEstimate served %d runs from cache, want %d", served, 2*len(Workloads()))
	}
}

// TestRunOneKeepsNoLog pins that serving a cached cell retains nothing:
// a daemon answers POST /run from the cache for as long as it lives, so
// any per-run record the engine kept would grow its heap without bound.
func TestRunOneKeepsNoLog(t *testing.T) {
	eng := NewEngine()
	cfg := BaselineConfig()
	if _, _, err := eng.RunOne(cfg, "micro.chain"); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	// Twice: the first collection only moves sync.Pool contents to the
	// victim cache, and their release later would hide growth.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10000; i++ {
		if _, m, err := eng.RunOne(cfg, "micro.chain"); err != nil || !m.Cached {
			t.Fatalf("run %d: cached %v, err %v", i, m.Cached, err)
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The engine must be live at the measurement, or whatever it holds
	// would be collected with it.
	runtime.KeepAlive(eng)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 256<<10 {
		t.Errorf("10000 cached runs grew the heap by %d bytes, want < %d", grew, 256<<10)
	}
}
