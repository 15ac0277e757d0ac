package ce

import (
	"reflect"
	"testing"
)

// eqStats compares the deterministic Stats fields (host telemetry
// legitimately differs between a monolithic run and a segmented one).
func eqStats(t *testing.T, label string, got, want Stats) {
	t.Helper()
	g, w := got, want
	g.HostAllocs, w.HostAllocs = 0, 0
	g.HostWallSeconds, w.HostWallSeconds = 0, 0
	gh, wh := g.IssuedPerCycle, w.IssuedPerCycle
	g.IssuedPerCycle, w.IssuedPerCycle = nil, nil
	if g != w {
		t.Errorf("%s: stats diverge:\n  got  %+v\n  want %+v", label, g, w)
	}
	if gh.Total() != wh.Total() {
		t.Errorf("%s: issue histogram records %d cycles, want %d", label, gh.Total(), wh.Total())
	}
	for v := 0; v <= 8; v++ {
		if gh.Count(v) != wh.Count(v) {
			t.Errorf("%s: issue histogram bucket %d = %d, want %d", label, v, gh.Count(v), wh.Count(v))
		}
	}
}

// TestEngineSegmentedExactMatchesMonolithic is the engine-level
// exactness differential: a matrix run under full-warmup segmentation
// must reproduce the monolithic engine's results bit for bit, and its
// runs must carry Exact segment metrics.
func TestEngineSegmentedExactMatchesMonolithic(t *testing.T) {
	cfgs := []Config{BaselineConfig(), DependenceConfig()}
	ws := []string{"micro.branchy"}

	mono := NewEngine()
	want, err := mono.RunMatrix(cfgs, ws)
	if err != nil {
		t.Fatal(err)
	}
	seg := NewEngine()
	seg.SetSegments(4)
	got, err := seg.RunMatrix(cfgs, ws)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range cfgs {
		eqStats(t, cfgs[ci].Name, got[ci][0], want[ci][0])
	}
	ts := seg.TraceStats()
	if ts.SegmentRuns != len(cfgs) {
		t.Errorf("segment runs = %d, want %d", ts.SegmentRuns, len(cfgs))
	}
	if ts.SegmentsSimulated < 2*len(cfgs) {
		t.Errorf("segments simulated = %d, want ≥ %d", ts.SegmentsSimulated, 2*len(cfgs))
	}
	for _, m := range seg.Metrics() {
		if m.Segments == nil {
			t.Fatalf("run %s/%s carries no segment metrics", m.Config, m.Workload)
		}
		if !m.Segments.Exact {
			t.Errorf("full-warmup run %s/%s not marked exact", m.Config, m.Workload)
		}
		if m.Segments.Simulated != m.Segments.Segments {
			t.Errorf("unsampled run simulated %d of %d segments", m.Segments.Simulated, m.Segments.Segments)
		}
		if !m.Replayed {
			t.Errorf("segmented run %s/%s not marked replayed", m.Config, m.Workload)
		}
	}
}

// TestEngineSegmentedSharesExactCacheKey pins the cache-key policy:
// exact segmentation shares the monolithic key (the bits are
// identical), while approximate plans are keyed separately in both
// directions.
func TestEngineSegmentedSharesExactCacheKey(t *testing.T) {
	eng := NewEngine()
	w := []string{"micro.branchy"}
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 1 {
		t.Fatalf("monolithic run: %+v", cs)
	}
	// Exact segmentation: same result, so the cache may (must) serve it.
	eng.SetSegments(4)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 1 || cs.Saved() != 1 {
		t.Errorf("exact segmented run did not share the monolithic key: %+v", cs)
	}
	// Finite warmup is an estimate: it must not be served the exact
	// result, nor poison it for the monolithic run that follows.
	eng.SetSegmentWarmup(1 << 14)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 {
		t.Errorf("approximate plan shared the exact key: %+v", cs)
	}
	eng.SetSegments(0)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, w); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 || cs.Saved() != 2 {
		t.Errorf("monolithic rerun after approximate plan: %+v", cs)
	}
}

// TestEngineSampledSegments exercises the sampling stride: every
// second segment is simulated, the metrics say so, and the IPC estimate
// lands near the monolithic truth.
func TestEngineSampledSegments(t *testing.T) {
	mono := NewEngine()
	want, err := mono.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.SetSegments(4)
	eng.SetSegmentWarmup(1 << 14)
	eng.SetSegmentSample(2)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ms := eng.Metrics()
	if len(ms) != 1 || ms[0].Segments == nil {
		t.Fatalf("expected one run with segment metrics, got %+v", ms)
	}
	sm := ms[0].Segments
	if sm.Exact {
		t.Error("sampled run marked exact")
	}
	if sm.Simulated >= sm.Segments {
		t.Errorf("sampling simulated %d of %d segments", sm.Simulated, sm.Segments)
	}
	if sm.IPCMean <= 0 {
		t.Errorf("sampled IPC mean %v", sm.IPCMean)
	}
	trueIPC := want[0][0].IPC()
	if sm.IPCMean < trueIPC*0.8 || sm.IPCMean > trueIPC*1.2 {
		t.Errorf("sampled IPC %.3f not within 20%% of monolithic %.3f", sm.IPCMean, trueIPC)
	}
	if sm.EstimatedCycles <= 0 {
		t.Errorf("estimated cycles %d", sm.EstimatedCycles)
	}
}

// TestEngineAdaptiveWarmup exercises IPC-convergence warmup: the run is
// approximate (own cache key), the metrics report the adaptive policy
// with a bounded mean discard, and the estimate lands near the truth.
func TestEngineAdaptiveWarmup(t *testing.T) {
	mono := NewEngine()
	want, err := mono.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.SetSegments(4)
	eng.SetSegmentAdaptive(true)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ms := eng.Metrics()
	if len(ms) != 1 || ms[0].Segments == nil {
		t.Fatalf("expected one run with segment metrics, got %+v", ms)
	}
	sm := ms[0].Segments
	if !sm.AdaptiveWarmup || sm.Exact || sm.Warmup != 0 {
		t.Errorf("adaptive run misreported: %+v", sm)
	}
	if sm.WarmupConverged < 0 || sm.WarmupConverged > sm.Simulated {
		t.Errorf("WarmupConverged = %d of %d simulated", sm.WarmupConverged, sm.Simulated)
	}
	if sm.WarmupMeanSteps < 0 || sm.WarmupMeanSteps > 65536 {
		t.Errorf("WarmupMeanSteps = %f, want within the adaptive cap", sm.WarmupMeanSteps)
	}
	trueIPC := want[0][0].IPC()
	if sm.IPCMean < trueIPC*0.8 || sm.IPCMean > trueIPC*1.2 {
		t.Errorf("adaptive IPC %.3f not within 20%% of monolithic %.3f", sm.IPCMean, trueIPC)
	}
	// Adaptive is an estimate: it must not share the exact cache key.
	eng.SetSegments(0)
	eng.SetSegmentAdaptive(false)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 {
		t.Errorf("adaptive plan shared the exact key: %+v", cs)
	}
}

// TestEnginePhaseSampling exercises phase-clustered sampling end to
// end: segments cluster by their basic-block vectors, one
// representative per phase is timed, and the cluster-weighted estimate
// lands near the monolithic truth.
func TestEnginePhaseSampling(t *testing.T) {
	mono := NewEngine()
	want, err := mono.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	eng.SetSegments(8)
	eng.SetSegmentWarmup(1 << 13)
	eng.SetSegmentPhases(3)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	ms := eng.Metrics()
	if len(ms) != 1 || ms[0].Segments == nil {
		t.Fatalf("expected one run with segment metrics, got %+v", ms)
	}
	sm := ms[0].Segments
	if sm.Mode != "phase" {
		t.Fatalf("mode %q, want phase", sm.Mode)
	}
	if sm.Phases < 1 || sm.Phases > 3 || sm.Simulated != sm.Phases {
		t.Errorf("phase plan: %d phases, %d simulated of %d segments", sm.Phases, sm.Simulated, sm.Segments)
	}
	if sm.Exact {
		t.Error("phase-sampled run marked exact")
	}
	trueIPC := want[0][0].IPC()
	if sm.IPCMean < trueIPC*0.8 || sm.IPCMean > trueIPC*1.2 {
		t.Errorf("phase-weighted IPC %.3f not within 20%% of monolithic %.3f", sm.IPCMean, trueIPC)
	}
	if sm.EstimatedCycles <= 0 {
		t.Errorf("estimated cycles %d", sm.EstimatedCycles)
	}
}

// TestSegmentBench smoke-tests the benchmark harness on a small
// workload: both sides run, the speedup is computed, and the estimate
// is self-consistent.
func TestSegmentBench(t *testing.T) {
	res, err := SegmentBench("micro.branchy", 4, 2, 1<<13)
	if err != nil {
		t.Fatal(err)
	}
	if res.MonoCycles <= 0 || res.MonoIPC <= 0 {
		t.Fatalf("monolithic side empty: %+v", res)
	}
	if res.SampledIPC <= 0 || res.Speedup <= 0 {
		t.Fatalf("sampled side empty: %+v", res)
	}
	if res.Segments < 2 || res.Sample != 2 {
		t.Errorf("plan not honoured: %+v", res)
	}
	if res.IPCErrorPct < -50 || res.IPCErrorPct > 50 {
		t.Errorf("sampled IPC off by %.1f%%", res.IPCErrorPct)
	}
}

// TestSegKeySuffixCoversPlan changes every segPlan field in turn, through
// the engine setter that feeds it, and requires segKeySuffix to change:
// a plan field missing from the key would let one approximate plan's
// estimate be served for another's. A segPlan field without a setter
// here fails the test until it is classified.
func TestSegKeySuffixCoversPlan(t *testing.T) {
	setters := map[string]func(*Engine){
		"k":        func(e *Engine) { e.SetSegments(5) },
		"warmup":   func(e *Engine) { e.SetSegmentWarmup(1001) },
		"sample":   func(e *Engine) { e.SetSegmentSample(3) },
		"adaptive": func(e *Engine) { e.SetSegmentAdaptive(true) },
		"phases":   func(e *Engine) { e.SetSegmentPhases(3) },
	}
	base := func() *Engine {
		e := NewEngine()
		e.SetSegments(4)
		e.SetSegmentWarmup(1000)
		e.SetSegmentSample(2)
		return e
	}
	cfg := BaselineConfig()
	baseSuffix := base().segKeySuffix(cfg)
	if baseSuffix == "" {
		t.Fatal("approximate base plan shares the exact key")
	}
	pt := reflect.TypeOf(segPlan{})
	for i := 0; i < pt.NumField(); i++ {
		name := pt.Field(i).Name
		set, ok := setters[name]
		if !ok {
			t.Errorf("segPlan.%s has no setter in this test: classify it", name)
			continue
		}
		e := base()
		set(e)
		if e.segKeySuffix(cfg) == baseSuffix {
			t.Errorf("segPlan.%s: changing it did not change segKeySuffix", name)
		}
	}
}

// TestSetSegmentFlags pins the -warmup/-sample/-phases spellings cesweep
// and cesweepd share: the accepted values and the plan each yields, and
// the rejected ones with the flag named in the error.
func TestSetSegmentFlags(t *testing.T) {
	for _, tc := range []struct {
		warmup, sample string
		want           segPlan // on a fresh engine
		err            string
	}{
		{warmup: "-1", sample: "1", want: segPlan{warmup: -1, sample: 1}},
		{warmup: "0", sample: "4", want: segPlan{warmup: 0, sample: 4}},
		{warmup: "65536", sample: "phase", want: segPlan{warmup: 65536, sample: 1, phases: 3}},
		{warmup: "adaptive", sample: "2", want: segPlan{warmup: -1, sample: 2, adaptive: true}},
		{warmup: "full", sample: "1", err: `-warmup: "full" is neither an instruction count nor 'adaptive'`},
		{warmup: "", sample: "1", err: `-warmup: "" is neither an instruction count nor 'adaptive'`},
		{warmup: "1.5", sample: "1", err: `-warmup: "1.5" is neither an instruction count nor 'adaptive'`},
		{warmup: "-1", sample: "stride", err: `-sample: "stride" is neither a stride nor 'phase'`},
		{warmup: "-1", sample: "", err: `-sample: "" is neither a stride nor 'phase'`},
	} {
		e := NewEngine()
		err := e.SetSegmentFlags(tc.warmup, tc.sample, 3)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("(%q, %q): err = %v, want %q", tc.warmup, tc.sample, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("(%q, %q): %v", tc.warmup, tc.sample, err)
			continue
		}
		if got := e.segmentPlan(); got != tc.want {
			t.Errorf("(%q, %q): plan %+v, want %+v", tc.warmup, tc.sample, got, tc.want)
		}
	}
}
