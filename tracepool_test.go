package ce

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

// TestEngineTracePoolEquivalence pins the engine-level replay contract:
// a matrix run with the trace pool (default) and one with lockstep
// drive produce identical simulation results, each workload is captured
// exactly once however many configurations consume it, wrong-path
// configurations fall back to lockstep, and the capture cost is
// attributed to the pool rather than to any run.
func TestEngineTracePoolEquivalence(t *testing.T) {
	wp := BaselineConfig()
	wp.WrongPathExecution = true
	wp.Name += "+wrong-path"
	cfgs := []Config{BaselineConfig(), DependenceConfig(), wp}
	workloads := []string{"compress", "micro.branchy"}

	replayEng := NewEngine()
	lockEng := NewEngine()
	lockEng.SetTraceReplay(false)

	got, err := replayEng.RunMatrix(cfgs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := lockEng.RunMatrix(cfgs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		for j := range workloads {
			a, b := got[i][j], want[i][j]
			if a.IssuedPerCycle.Total() != b.IssuedPerCycle.Total() ||
				a.IssuedPerCycle.Mean() != b.IssuedPerCycle.Mean() {
				t.Errorf("%s/%s: issue histograms diverge", cfgs[i].Name, workloads[j])
			}
			a.HostAllocs, b.HostAllocs = 0, 0
			a.HostWallSeconds, b.HostWallSeconds = 0, 0
			a.IssuedPerCycle, b.IssuedPerCycle = nil, nil
			if a != b {
				t.Errorf("%s/%s: replay-driven stats diverge from lockstep:\n  %+v\n  %+v",
					cfgs[i].Name, workloads[j], a, b)
			}
		}
	}

	ts := replayEng.TraceStats()
	if ts.Captures != len(workloads) || ts.DiskHits != 0 {
		t.Errorf("replay engine captured %d workloads (%d disk hits), want %d captures",
			ts.Captures, ts.DiskHits, len(workloads))
	}
	if ts.ReplayRuns != 4 || ts.LockstepRuns != 2 {
		t.Errorf("replay engine ran %d replay / %d lockstep sims, want 4 / 2 (wrong-path falls back)",
			ts.ReplayRuns, ts.LockstepRuns)
	}
	if ts.StepsReplayed == 0 || ts.StepsExecuted == 0 {
		t.Errorf("degenerate step balance: %+v", ts)
	}
	if ls := lockEng.TraceStats(); ls.Captures != 0 || ls.ReplayRuns != 0 || ls.LockstepRuns != 6 {
		t.Errorf("lockstep engine touched the trace pool: %+v", ls)
	}

	// Per-run metrics: fresh runs are marked by drive mode, and capture
	// time is reported separately from (not inside) the run's wall time.
	for _, m := range replayEng.Metrics() {
		if m.Cached {
			continue
		}
		wantReplay := m.Config != wp.Name
		if m.Replayed != wantReplay {
			t.Errorf("%s/%s: Replayed = %v, want %v", m.Config, m.Workload, m.Replayed, wantReplay)
		}
		if m.WallSeconds < 0 || m.CaptureSeconds < 0 {
			t.Errorf("%s/%s: negative attribution: wall %g capture %g",
				m.Config, m.Workload, m.WallSeconds, m.CaptureSeconds)
		}
	}
	for _, m := range lockEng.Metrics() {
		if !m.Cached && (m.Replayed || m.CaptureSeconds != 0) {
			t.Errorf("%s/%s: lockstep run carries replay attribution: %+v", m.Config, m.Workload, m)
		}
	}
}

// TestSetTraceDirFlushesPool is the regression test for SetTraceDir
// called after traces are already pooled: the earlier captures used to
// stay in-memory only (never persisted anywhere), so the directory
// silently missed exactly the workloads that ran first. A directory
// change now flushes every completed capture to the new directory.
func TestSetTraceDirFlushesPool(t *testing.T) {
	eng := NewEngine()
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 {
		t.Fatalf("expected 1 pooled capture, got %+v", ts)
	}

	dir := t.TempDir()
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}

	// The pooled trace must now exist on disk under the new directory.
	w, err := prog.ByName("micro.branchy")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ReadFile(dir, p); err != nil {
		t.Fatalf("pooled trace was not flushed to the new dir: %v", err)
	}

	// A fresh engine pointed at the same directory loads the flushed
	// trace instead of re-executing the workload.
	eng2 := NewEngine()
	if err := eng2.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng2.TraceStats(); ts.DiskHits != 1 || ts.Captures != 0 {
		t.Errorf("fresh engine did not load the flushed trace: %+v", ts)
	}

	// Setting the same directory again is a no-op (no error, pool kept).
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RunMatrix([]Config{DependenceConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 {
		t.Errorf("pool was dropped on a no-op dir change: %+v", ts)
	}
}

// TestEngineStreamingCapture pins the bounded-memory capture contract:
// with a trace directory configured, capture streams straight to disk
// and the pooled trace reports its bytes on disk, not resident.
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
	if ts.TraceDiskBytes == 0 || ts.TraceResidentBytes != 0 {
		t.Errorf("streamed capture footprint disk=%d resident=%d, want all bytes on disk",
			ts.TraceDiskBytes, ts.TraceResidentBytes)
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

// TestEngineCaptureFailureCounted pins the lockstep-fallback
// accounting: when the trace cannot be captured, the run still succeeds
// by lockstep execution, and the fallback is counted rather than
// silent.
func TestEngineCaptureFailureCounted(t *testing.T) {
	eng := NewEngine()
	dir := filepath.Join(t.TempDir(), "traces")
	if err := eng.SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	// Replace the trace directory with a regular file: ReadFile and the
	// streaming capture both fail with ENOTDIR, forcing the fallback.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	lock := NewEngine()
	lock.SetTraceReplay(false)
	want, err := lock.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].Cycles != want[0][0].Cycles {
		t.Errorf("fallback run diverges: %d cycles vs %d", got[0][0].Cycles, want[0][0].Cycles)
	}
	ts := eng.TraceStats()
	if ts.CaptureFailures != 1 || ts.LockstepRuns != 1 || ts.ReplayRuns != 0 {
		t.Errorf("fallback not accounted: %+v", ts)
	}
	for _, m := range eng.Metrics() {
		if m.Replayed {
			t.Errorf("%s/%s marked replayed despite capture failure", m.Config, m.Workload)
		}
	}
}

// TestEngineCorruptTraceRecaptured pins the mid-replay corruption path:
// a trace whose on-disk chunk is flipped after capture fails its lazy
// checksum at the next load, is dropped and invalidated, and the run
// transparently recaptures and retries — correct results, one
// CorruptDropped count, two Captures. The segmented variant routes the
// replay through parallel segment workers, so the corrupt chunk is
// observed (and the retry coordinated) across concurrent readers —
// which the race detector checks for tearing.
func TestEngineCorruptTraceRecaptured(t *testing.T) {
	t.Run("monolithic", func(t *testing.T) { testCorruptTraceRecaptured(t, 0) })
	t.Run("segmented", func(t *testing.T) { testCorruptTraceRecaptured(t, 4) })
}

func testCorruptTraceRecaptured(t *testing.T, segments int) {
	eng := NewEngine()
	eng.SetSegments(segments)
	// Streaming replay re-reads (and re-verifies) chunks from disk on
	// every run, so it observes the corruption this test injects after
	// the first run. Gang replay would legitimately mask it: the chunk
	// was verified at its one decode and the resident slab stays good —
	// TestEngineGangCorruptTraceRecaptured covers the gang recovery path
	// with a cold cache instead.
	eng.SetGangReplay(false)
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

	// A different configuration misses the run cache and replays the now
	// rotten trace; the engine must drop it, recapture, and succeed.
	lock := NewEngine()
	lock.SetTraceReplay(false)
	want, err := lock.RunMatrix([]Config{DependenceConfig()}, []string{"micro.branchy"})
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
	if ts.Captures != 2 {
		t.Errorf("Captures = %d, want 2 (original + recapture)", ts.Captures)
	}
	if ts.CaptureFailures != 0 {
		t.Errorf("corruption miscounted as capture failure: %+v", ts)
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

// TestEngineGangCorruptTraceRecaptured pins corrupt-chunk recovery on
// the gang path: a trace whose on-disk bytes rot before any slab is
// decoded fails its checksum during the gang's single decode, is
// dropped and invalidated, and the run recaptures and retries — same
// contract as streaming replay, detected once per chunk instead of once
// per config.
func TestEngineGangCorruptTraceRecaptured(t *testing.T) {
	for _, segments := range []int{0, 4} {
		seed := NewEngine()
		dir := t.TempDir()
		if err := seed.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := seed.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
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
		f, err := os.OpenFile(trace.DiskPath(dir, p), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xFF}, 40+64); err != nil {
			t.Fatal(err)
		}
		f.Close()

		// A fresh engine loads the rotten file lazily; the gang's first
		// slab decode trips the checksum.
		eng := NewEngine()
		eng.SetSegments(segments)
		if err := eng.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		lock := NewEngine()
		lock.SetTraceReplay(false)
		want, err := lock.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
		if err != nil {
			t.Fatalf("segments=%d: %v", segments, err)
		}
		if got[0][0].Cycles != want[0][0].Cycles {
			t.Errorf("segments=%d: recaptured gang run diverges: %d cycles vs %d", segments, got[0][0].Cycles, want[0][0].Cycles)
		}
		ts := eng.TraceStats()
		if ts.CorruptDropped != 1 || ts.DiskHits != 1 || ts.Captures != 1 {
			t.Errorf("segments=%d: recovery accounting: CorruptDropped=%d DiskHits=%d Captures=%d, want 1/1/1",
				segments, ts.CorruptDropped, ts.DiskHits, ts.Captures)
		}
		if ts.GangRuns != 1 {
			t.Errorf("segments=%d: GangRuns = %d, want 1", segments, ts.GangRuns)
		}
		if err := ts.Check(); err != nil {
			t.Errorf("segments=%d: %v", segments, err)
		}
	}
}

// TestEngineCorruptTraceCountedOnce: two configs replaying one trace
// both trip over its corrupt chunk, but the pool drops (and counts) the
// trace once — the second run finds the entry already evicted or
// recaptured. Run under -race it also checks the concurrent drop path.
func TestEngineCorruptTraceCountedOnce(t *testing.T) {
	const workload = "micro.branchy"
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	lock := NewEngine()
	lock.SetTraceReplay(false)
	want, err := lock.RunMatrix(cfgs, []string{workload})
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
	// Gang replay decodes the bad chunk once for both configs; segmented
	// streaming replay has both configs' workers reading it at once.
	for _, mode := range []struct {
		gang     bool
		segments int
	}{{true, 0}, {false, 8}} {
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
		eng.SetGangReplay(mode.gang)
		eng.SetSegments(mode.segments)
		if err := eng.SetTraceDir(dir); err != nil {
			t.Fatal(err)
		}
		got, err := eng.RunMatrix(cfgs, []string{workload})
		if err != nil {
			t.Fatalf("%+v: %v", mode, err)
		}
		for i := range cfgs {
			if got[i][0].Cycles != want[i][0].Cycles {
				t.Errorf("%+v %s: %d cycles after recapture, want %d",
					mode, cfgs[i].Name, got[i][0].Cycles, want[i][0].Cycles)
			}
		}
		ts := eng.TraceStats()
		if ts.CorruptDropped != 1 {
			t.Errorf("%+v: CorruptDropped = %d, want 1 (%+v)", mode, ts.CorruptDropped, ts)
		}
		if err := ts.Check(); err != nil {
			t.Errorf("%+v: %v", mode, err)
		}
	}
}

// TestTraceStatsCheck pins the invariant table itself: a clean snapshot
// passes and each over-count is named.
func TestTraceStatsCheck(t *testing.T) {
	ok := TraceStats{Captures: 1, DiskHits: 6, CorruptDropped: 1, ReplayRuns: 14, GangRuns: 14, SegmentRuns: 2, LeaseWaits: 1}
	if err := ok.Check(); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		bad  func(*TraceStats)
		want string
	}{
		{"corrupt", func(ts *TraceStats) { ts.CorruptDropped = 8 }, "corrupt"},
		{"gang", func(ts *TraceStats) { ts.GangRuns = 15 }, "gang"},
		{"segment", func(ts *TraceStats) { ts.SegmentRuns = 15 }, "segment"},
		{"lease", func(ts *TraceStats) { ts.LeaseWaits = 7 }, "lease"},
	} {
		ts := ok
		tc.bad(&ts)
		if err := ts.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

// TestEngineGangEquivalence pins the gang-replay contract at the engine
// level: a matrix run with gang replay (the default) and one with it
// disabled produce identical simulation results, the ganged engine
// counts its runs and slab sharing, and the decoded-record total drops
// below the per-config baseline's (#configs × trace length).
func TestEngineGangEquivalence(t *testing.T) {
	cfgs := []Config{BaselineConfig(), DependenceConfig(), FourWayConfig()}
	workloads := []string{"compress", "micro.branchy"}

	gangEng := NewEngine()
	streamEng := NewEngine()
	streamEng.SetGangReplay(false)

	got, err := gangEng.RunMatrix(cfgs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := streamEng.RunMatrix(cfgs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		for j := range workloads {
			a, b := got[i][j], want[i][j]
			if a.IssuedPerCycle.Total() != b.IssuedPerCycle.Total() ||
				a.IssuedPerCycle.Mean() != b.IssuedPerCycle.Mean() {
				t.Errorf("%s/%s: issue histograms diverge", cfgs[i].Name, workloads[j])
			}
			a.HostAllocs, b.HostAllocs = 0, 0
			a.HostWallSeconds, b.HostWallSeconds = 0, 0
			a.IssuedPerCycle, b.IssuedPerCycle = nil, nil
			if a != b {
				t.Errorf("%s/%s: ganged stats diverge from streaming replay:\n  %+v\n  %+v",
					cfgs[i].Name, workloads[j], a, b)
			}
		}
	}

	gts := gangEng.TraceStats()
	if gts.GangRuns != len(cfgs)*len(workloads) {
		t.Errorf("GangRuns = %d, want %d", gts.GangRuns, len(cfgs)*len(workloads))
	}
	if gts.SlabDecodes == 0 {
		t.Error("ganged sweep decoded no slabs")
	}
	if gts.SlabHits == 0 {
		t.Error("ganged sweep shared no slabs (every acquisition decoded)")
	}
	sts := streamEng.TraceStats()
	if sts.GangRuns != 0 || sts.SlabDecodes != 0 {
		t.Errorf("gang-disabled engine touched the slab cache: %+v", sts)
	}
	if gts.RecordsDecoded == 0 || sts.RecordsDecoded == 0 {
		t.Fatalf("decoded-record accounting is dark: gang %d, stream %d", gts.RecordsDecoded, sts.RecordsDecoded)
	}
	if gts.RecordsDecoded*uint64(len(cfgs)) > sts.RecordsDecoded {
		t.Errorf("gang decoded %d records vs %d streamed — expected at least a %d× reduction",
			gts.RecordsDecoded, sts.RecordsDecoded, len(cfgs))
	}
	for _, m := range gangEng.Metrics() {
		if !m.Cached && !m.Ganged {
			t.Errorf("%s/%s: fresh run not marked ganged", m.Config, m.Workload)
		}
	}
}

// TestEngineGangSingleCapture pins the capture-attribution fix: when a
// gang of configurations races over one uncaptured workload, the
// capture happens once and is charged to exactly one run's
// CaptureSeconds; the other gang members report only wait time
// (CaptureWaitSeconds), so summing CaptureSeconds across the sweep
// counts each capture once instead of once per gang member.
func TestEngineGangSingleCapture(t *testing.T) {
	eng := NewEngine()
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	if _, err := eng.RunMatrix(cfgs, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if ts := eng.TraceStats(); ts.Captures != 1 {
		t.Fatalf("Captures = %d, want 1", ts.Captures)
	}
	owners := 0
	for _, m := range eng.Metrics() {
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

// TestEngineGangSegmented checks the two-axis gang end to end: a
// segment-parallel exact run with slabs stitches bit-identical to the
// monolithic gang run (they share a run-cache key, so use separate
// engines) and is accounted as both a segment run and a gang run.
func TestEngineGangSegmented(t *testing.T) {
	segEng := NewEngine()
	segEng.SetSegments(4)
	monoEng := NewEngine()
	cfgs := []Config{BaselineConfig()}
	workloads := []string{"compress"}
	seg, err := segEng.RunMatrix(cfgs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := monoEng.RunMatrix(cfgs, workloads)
	if err != nil {
		t.Fatal(err)
	}
	a, b := seg[0][0], mono[0][0]
	if a.IssuedPerCycle.Total() != b.IssuedPerCycle.Total() {
		t.Error("issue histograms diverge between segmented and monolithic gang runs")
	}
	a.HostAllocs, b.HostAllocs = 0, 0
	a.HostWallSeconds, b.HostWallSeconds = 0, 0
	a.IssuedPerCycle, b.IssuedPerCycle = nil, nil
	if a != b {
		t.Errorf("segmented gang stats diverge from monolithic:\n  %+v\n  %+v", a, b)
	}
	ts := segEng.TraceStats()
	if ts.SegmentRuns != 1 || ts.GangRuns != 1 {
		t.Errorf("segmented gang accounting: SegmentRuns=%d GangRuns=%d, want 1/1", ts.SegmentRuns, ts.GangRuns)
	}
	if ts.SlabHits == 0 {
		t.Error("segment workers shared no slabs")
	}
}
