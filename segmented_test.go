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

// TestEnginePhaseSampling exercises phase-clustered sampling end to
// end: segments cluster by their basic-block vectors, one
// representative per phase is timed, the cluster-weighted estimate
// lands near the monolithic truth, and the estimate is cached apart
// from the exact result.
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
	if sm.Phases < 1 || sm.Phases > 3 || sm.Simulated != sm.Phases || sm.Simulated >= sm.Segments {
		t.Errorf("phase plan: %d phases, %d simulated of %d segments", sm.Phases, sm.Simulated, sm.Segments)
	}
	if sm.Exact || sm.Warmup != 1<<13 {
		t.Errorf("phase-sampled run misreported: %+v", sm)
	}
	trueIPC := want[0][0].IPC()
	if sm.IPCMean < trueIPC*0.8 || sm.IPCMean > trueIPC*1.2 {
		t.Errorf("phase-weighted IPC %.3f not within 20%% of monolithic %.3f", sm.IPCMean, trueIPC)
	}
	if sm.EstimatedCycles <= 0 {
		t.Errorf("estimated cycles %d", sm.EstimatedCycles)
	}
	// The estimate must not share the exact cache key in either
	// direction: the monolithic run that follows simulates afresh.
	eng.SetSegments(0)
	if _, err := eng.RunMatrix([]Config{BaselineConfig()}, []string{"micro.branchy"}); err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 {
		t.Errorf("phase plan shared the exact key: %+v", cs)
	}
}

// TestSegKeySuffixCoversPlan changes every segPlan field in turn, through
// the engine setter that feeds it, and requires segKeySuffix to change:
// a plan field missing from the key would let one approximate plan's
// estimate be served for another's. A segPlan field without a setter
// here fails the test until it is classified.
func TestSegKeySuffixCoversPlan(t *testing.T) {
	setters := map[string]func(*Engine){
		"k":      func(e *Engine) { e.SetSegments(5) },
		"warmup": func(e *Engine) { e.SetSegmentWarmup(1001) },
		"phases": func(e *Engine) { e.SetSegmentPhases(3) },
	}
	base := func() *Engine {
		e := NewEngine()
		e.SetSegments(4)
		e.SetSegmentWarmup(1000)
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
