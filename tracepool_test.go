package ce

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/errclass"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/trace"
)

// TestEngineTracePoolEquivalence pins the engine-level replay contract:
// a replay-driven matrix run produces the statistics of lockstep
// execution (Run) cell for cell, each workload is captured exactly once
// however many configurations consume it, and the capture cost is
// attributed to the pool rather than to any run.
func TestEngineTracePoolEquivalence(t *testing.T) {
	cfgs := []Config{BaselineConfig(), DependenceConfig(), ClusteredDependenceConfig()}
	workloads := []string{"compress", "micro.branchy"}

	eng := NewEngine()
	runs := recordRuns(eng)
	got, err := eng.RunMatrix(cfgs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		for j, w := range workloads {
			want, err := Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if err := pipeline.DiffStats(got[i][j], want); err != nil {
				t.Errorf("%s/%s: replay-driven stats diverge from lockstep: %v", cfg.Name, w, err)
			}
		}
	}

	ts := eng.TraceStats()
	if ts.Captures != len(workloads) || ts.DiskHits != 0 {
		t.Errorf("engine captured %d workloads (%d disk hits), want %d captures",
			ts.Captures, ts.DiskHits, len(workloads))
	}
	if ts.ReplayRuns != 6 {
		t.Errorf("engine ran %d replay sims, want 6", ts.ReplayRuns)
	}
	if ts.StepsReplayed == 0 || ts.StepsExecuted == 0 {
		t.Errorf("degenerate step balance: %+v", ts)
	}

	// Capture time is reported separately from (not inside) the run's
	// wall time.
	for _, m := range runs() {
		if m.WallSeconds < 0 || m.CaptureSeconds < 0 {
			t.Errorf("%s/%s: negative attribution: wall %g capture %g",
				m.Config, m.Workload, m.WallSeconds, m.CaptureSeconds)
		}
	}
}

// TestSetTraceDirRefusesPooledTraces pins SetTraceDir's contract: a
// directory change once the pool holds a trace is an error (that trace
// lives in an anonymous file the new directory would never see), while
// setting the current directory again is a no-op that keeps the pool.
func TestSetTraceDirRefusesPooledTraces(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetTraceDir(t.TempDir()); err == nil {
		t.Fatal("SetTraceDir accepted a directory change with a pooled trace")
	}

	dir := t.TempDir()
	eng = NewEngine()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatalf("setting the same directory again: %v", err)
	}
	if _, err := eng.RunMatrix([]Config{DependenceConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 || ts.DiskHits != 0 {
		t.Errorf("pool was dropped on a no-op dir change: %+v", ts)
	}
}

// TestEngineStreamingCapture pins the trace-directory capture contract:
// capture streams straight to the canonical file, and the pooled trace
// reports its bytes on disk.
func TestEngineStreamingCapture(t *testing.T) {
	eng := NewEngine()
	dir := t.TempDir()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ts := eng.TraceStats()
	if ts.Captures != 1 {
		t.Fatalf("expected 1 capture, got %+v", ts)
	}
	if ts.TraceDiskBytes == 0 {
		t.Errorf("streamed capture reports no bytes on disk: %+v", ts)
	}
	w, err := prog.ByName("micro.branchy")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(trace.DiskPath(dir, p)); err != nil {
		t.Errorf("streamed capture missing from the trace dir: %v", err)
	}
}

// TestEngineCaptureFailureRetried pins the capture-failure contract: a
// trace that cannot be captured fails the run with a transient error,
// and neither the trace pool nor the run cache remembers the failure,
// so once the fault clears the same engine captures and replays.
func TestEngineCaptureFailureRetried(t *testing.T) {
	eng := NewEngine()
	dir := filepath.Join(t.TempDir(), "traces")
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	// Replace the trace directory with a regular file: ReadFile and the
	// streaming capture both fail with ENOTDIR.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfgs, workloads := []Config{BaselineConfig()}, []string{"micro.branchy"}
	if _, err := eng.RunMatrix(cfgs, workloads); !errclass.IsTransient(err) {
		t.Fatalf("capture into a non-directory: got error %v, want a transient one", err)
	}

	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunMatrix(cfgs, workloads)
	if err != nil {
		t.Fatalf("run after the trace directory was restored: %v", err)
	}
	want, err := Run(cfgs[0], workloads[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.DiffStats(got[0][0], want); err != nil {
		t.Errorf("retried run diverges from lockstep: %v", err)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 || ts.ReplayRuns != 1 {
		t.Errorf("trace stats after the retry: %+v, want 1 capture and 1 replay run", ts)
	}
}

// TestEngineCorruptTraceRecaptured pins the mid-replay corruption path:
// a trace whose on-disk chunk is flipped after capture fails its lazy
// checksum at the next load, is dropped and invalidated, and the run
// transparently recaptures and retries — correct results, one
// CorruptDropped count, one recapture — and the same result as a clean
// run under the same plan. The segmented variants route the replay
// through parallel phase-sampling workers, so the corrupt chunk is
// observed (and the retry coordinated) across concurrent readers —
// which the race detector checks for tearing. The load variant has a
// fresh engine load the already rotten file from disk: the load
// succeeds (chunks are verified lazily), so the first segment worker
// to read the bad chunk trips the checksum instead.
func TestEngineCorruptTraceRecaptured(t *testing.T) {
	for _, tc := range []struct {
		name             string
		segments, phases int
		reload           bool
	}{
		{"monolithic", 0, 0, false},
		{"segmented", 4, 2, false},
		{"segmented-load", 4, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testCorruptTraceRecaptured(t, func() *Engine {
				e := NewEngine()
				if err := e.SetPhaseSampling(tc.segments, tc.phases); err != nil {
					t.Fatal(err)
				}
				return e
			}, tc.reload)
		})
	}
}

// testCorruptTraceRecaptured corrupts a pooled trace under engines
// built by newEngine, which fixes the plan.
func testCorruptTraceRecaptured(t *testing.T, newEngine func() *Engine, reload bool) {
	eng := newEngine()
	// Streaming replay re-reads (and re-verifies) chunks from disk on
	// every run, so it observes the corruption this test injects after
	// the first run.
	dir := t.TempDir()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	w, err := prog.ByName("micro.branchy")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	path := trace.DiskPath(dir, p)
	// Flip one byte inside the first chunk's packed data (the header is
	// 40 bytes). The pooled trace reads through an open handle, so the
	// flip is visible to its next chunk load.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 40+64); err != nil {
		t.Fatal(err)
	}
	f.Close()
	wantCaptures, wantDiskHits := 2, 0
	if reload {
		eng = newEngine()
		if err := eng.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		wantCaptures, wantDiskHits = 1, 1
	}

	// A different configuration misses the run cache and replays the now
	// rotten trace; the engine must drop it, recapture, and succeed.
	want, err := newEngine().RunMatrix([]Config{DependenceConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunMatrix([]Config{DependenceConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Cycles != want[0][0].Cycles {
		t.Errorf("recaptured run diverges: %d cycles vs %d", got[0][0].Cycles, want[0][0].Cycles)
	}
	ts := eng.TraceStats()
	if ts.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1 (%+v)", ts.CorruptDropped, ts)
	}
	if ts.Captures != wantCaptures || ts.DiskHits != wantDiskHits {
		t.Errorf("Captures/DiskHits = %d/%d, want %d/%d", ts.Captures, ts.DiskHits, wantCaptures, wantDiskHits)
	}
	if err := ts.Check(); err != nil {
		t.Error(err)
	}
	// The recaptured file is intact: a fresh engine loads it from disk.
	eng2 := NewEngine()
	if err := eng2.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng2.TraceStats(); ts.DiskHits != 1 {
		t.Errorf("recaptured trace not reloadable: %+v", ts)
	}
}

// TestEngineCorruptTraceCountedOnce: two configs replaying one trace
// both trip over its corrupt chunk, but the pool drops (and counts) the
// trace once — the second run finds the entry already evicted or
// recaptured. Phase-sampled replay has both configs' workers reading
// the bad chunk at once; run under -race it also checks the concurrent
// drop path. The results match a clean run under the same plan.
func TestEngineCorruptTraceCountedOnce(t *testing.T) {
	const workload = "micro.branchy"
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	clean := NewEngine()
	if err := clean.SetPhaseSampling(8, 4); err != nil {
		t.Fatal(err)
	}
	want, err := clean.RunMatrix(cfgs, []string{workload})
	if err != nil {
		t.Fatal(err)
	}
	w, err := prog.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seed := NewEngine()
	if err := seed.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.RunMatrix([]Config{FourWayConfig()}, []string{workload}); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(trace.DiskPath(dir, p), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 40+64); err != nil {
		t.Fatal(err)
	}
	f.Close()

	eng := NewEngine()
	if err := eng.SetPhaseSampling(8, 4); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunMatrix(cfgs, []string{workload})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if got[i][0].Cycles != want[i][0].Cycles {
			t.Errorf("%s: %d cycles after recapture, want %d",
				cfgs[i].Name, got[i][0].Cycles, want[i][0].Cycles)
		}
	}
	ts := eng.TraceStats()
	if ts.CorruptDropped != 1 {
		t.Errorf("CorruptDropped = %d, want 1 (%+v)", ts.CorruptDropped, ts)
	}
	if err := ts.Check(); err != nil {
		t.Error(err)
	}
}

// TestTraceStatsCheck pins the invariant table itself: a clean snapshot
// passes and each over-count is named.
func TestTraceStatsCheck(t *testing.T) {
	ok := TraceStats{Captures: 1, DiskHits: 6, CorruptDropped: 1, ReplayRuns: 14, SegmentRuns: 2,
		StepsReplayed: 1000, RecordsDecoded: 1200}
	if err := ok.Check(); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		bad  func(*TraceStats)
		want string
	}{
		{"corrupt", func(ts *TraceStats) { ts.CorruptDropped = 8 }, "corrupt"},
		{"decoded", func(ts *TraceStats) { ts.RecordsDecoded = 999 }, "decoded"},
		{"segment", func(ts *TraceStats) { ts.SegmentRuns = 15 }, "segment"},
	} {
		ts := ok
		tc.bad(&ts)
		if err := ts.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestEngineSingleCaptureAttribution pins the capture-attribution fix:
// when several configurations race over one uncaptured workload, the
// capture happens once and is charged to exactly one run's
// CaptureSeconds; the other runs report only wait time
// (CaptureWaitSeconds), so summing CaptureSeconds across the sweep
// counts each capture once instead of once per waiting run.
func TestEngineSingleCaptureAttribution(t *testing.T) {
	eng := NewEngine()
	runs := recordRuns(eng)
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	if _, err := eng.RunMatrix(cfgs, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 {
		t.Fatalf("Captures = %d, want 1", ts.Captures)
	}
	owners := 0
	for _, m := range runs() {
		if m.Cached {
			continue
		}
		if m.CaptureSeconds > 0 {
			owners++
			if m.CaptureWaitSeconds > 0 {
				t.Errorf("%s/%s reports both owned capture (%gs) and wait (%gs)",
					m.Config, m.Workload, m.CaptureSeconds, m.CaptureWaitSeconds)
			}
		}
	}
	if owners != 1 {
		t.Errorf("%d runs report owned capture time, want exactly 1", owners)
	}
}

// TestEngineRecordsDecodedExact pins the decode counter: a monolithic
// replay decodes exactly the records it replays, and a phase-sampled
// run counts each representative's reader's own decodes, warmup prefix
// included, against the records it actually simulated.
func TestEngineRecordsDecodedExact(t *testing.T) {
	cfg := BaselineConfig()
	const workload = "micro.branchy"
	mono := NewEngine()
	if _, err := mono.RunMatrix([]Config{cfg, DependenceConfig()}, []string{workload}); err != nil {
		t.Fatal(err)
	}
	ts := mono.TraceStats()
	if ts.StepsReplayed == 0 || ts.RecordsDecoded != ts.StepsReplayed {
		t.Errorf("monolithic: %d records decoded, want exactly the %d replayed", ts.RecordsDecoded, ts.StepsReplayed)
	}

	seg := NewEngine()
	if err := seg.SetPhaseSampling(8, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.RunMatrix([]Config{cfg}, []string{workload}); err != nil {
		t.Fatal(err)
	}
	tr, err := seg.traceFor(workload)
	if err != nil {
		t.Fatal(err)
	}
	segs := tr.Segments(8)
	var want, simulated uint64
	for _, ph := range tr.SegmentPhases(segs, 2) {
		st, decoded, err := pipeline.RunSegment(cfg, tr, segs[ph.Rep], segWarmup, maxCycles)
		if err != nil {
			t.Fatal(err)
		}
		want += decoded
		simulated += st.EmuSteps
	}
	ts = seg.TraceStats()
	if ts.RecordsDecoded != want {
		t.Errorf("segmented: %d records decoded, want the representatives' readers' %d", ts.RecordsDecoded, want)
	}
	if ts.StepsReplayed != simulated {
		t.Errorf("segmented: %d steps replayed, want the %d the representatives simulated", ts.StepsReplayed, simulated)
	}
	if ts.RecordsDecoded <= ts.StepsReplayed {
		t.Errorf("segmented: %d records decoded, want more than the %d measured (warmup prefixes)", ts.RecordsDecoded, ts.StepsReplayed)
	}
	if err := ts.Check(); err != nil {
		t.Error(err)
	}
}

// TestTwoEnginesShareColdStore pins the shared-store contract: two
// engines over one cold cache and trace directory, standing in for two
// processes, may both simulate and capture the same entries, but they
// agree on every result, a third engine rendering from the warm store
// serves the same figure bytes without simulating, and no temp or lock
// file survives. Correctness comes from content addressing and
// temp-file-plus-rename alone.
func TestTwoEnginesShareColdStore(t *testing.T) {
	cacheDir, traceDir := t.TempDir(), t.TempDir()
	newEngine := func() *Engine {
		eng := NewEngine()
		if err := eng.SetCacheDir(cacheDir); err != nil {
			t.Fatal(err)
		}
		if err := eng.SetTraceDir(traceDir); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	engs := [2]*Engine{newEngine(), newEngine()}
	var (
		cmps [2]*IPCComparison
		errs [2]error
		wg   sync.WaitGroup
	)
	for i, eng := range engs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmps[i], errs[i] = eng.Figure13()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := cmps[0], cmps[1]
	if !slices.Equal(a.Workloads, b.Workloads) || len(a.Configs) != len(b.Configs) {
		t.Fatalf("engines disagree on the figure's shape: %v × %d vs %v × %d",
			a.Workloads, len(a.Configs), b.Workloads, len(b.Configs))
	}
	for ci := range a.Configs {
		for wi, w := range a.Workloads {
			if err := pipeline.DiffStats(a.Results[ci][wi], b.Results[ci][wi]); err != nil {
				t.Errorf("%s/%s: engines sharing a store disagree: %v", a.Configs[ci].Name, w, err)
			}
		}
	}

	var figs [2][]byte
	for i, eng := range engs {
		fig, err := eng.FigureJSON(13)
		if err != nil {
			t.Fatal(err)
		}
		figs[i] = fig
	}
	warm := newEngine()
	fig, err := warm.FigureJSON(13)
	if err != nil {
		t.Fatal(err)
	}
	for i := range figs {
		if !bytes.Equal(figs[i], fig) {
			t.Errorf("engine %d's figure differs from the warm store's:\n%s\nvs\n%s", i, figs[i], fig)
		}
	}
	if cs, ts := warm.CacheStats(), warm.TraceStats(); cs.Misses != 0 || ts.Captures != 0 {
		t.Errorf("warm engine simulated or captured: cache %+v, traces %+v", cs, ts)
	}

	for _, dir := range []string{cacheDir, traceDir} {
		for _, pat := range []string{"*.tmp", "*.lock"} {
			if left, _ := filepath.Glob(filepath.Join(dir, pat)); len(left) != 0 {
				t.Errorf("%s left behind: %v", pat, left)
			}
		}
	}
	for i, eng := range engs {
		t.Logf("engine %d: cache %+v; traces %d captured, %d loaded", i, eng.CacheStats(), eng.TraceStats().Captures, eng.TraceStats().DiskHits)
		if err := eng.TraceStats().Check(); err != nil {
			t.Errorf("engine %d: %v", i, err)
		}
		if err := eng.CacheStats().Check(); err != nil {
			t.Errorf("engine %d: %v", i, err)
		}
	}
}
