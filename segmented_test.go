package ce

import (
	"math"
	"reflect"
	"testing"
)

// TestSetPhaseSampling pins the plan's range: (0, 0) is monolithic,
// otherwise at least 2 segments and 1..segments phases. A rejected plan
// leaves the engine's plan as it was.
func TestSetPhaseSampling(t *testing.T) {
	for _, tc := range []struct {
		segments, phases int
		ok               bool
	}{
		{0, 0, true},
		{2, 1, true},
		{16, 4, true},
		{16, 16, true},
		{1, 1, false},
		{0, 4, false},
		{-2, 1, false},
		{16, 0, false},
		{16, -1, false},
		{4, 5, false},
	} {
		e := NewEngine()
		if err := e.SetPhaseSampling(8, 2); err != nil {
			t.Fatal(err)
		}
		err := e.SetPhaseSampling(tc.segments, tc.phases)
		if (err == nil) != tc.ok {
			t.Errorf("SetPhaseSampling(%d, %d) = %v, want ok=%v", tc.segments, tc.phases, err, tc.ok)
			continue
		}
		want := segPlan{k: 8, phases: 2}
		if tc.ok {
			want = segPlan{k: tc.segments, phases: tc.phases}
		}
		if got := e.segmentPlan(); got != want {
			t.Errorf("SetPhaseSampling(%d, %d): plan %+v, want %+v", tc.segments, tc.phases, got, want)
		}
	}
}

// TestEnginePhaseSampling exercises phase-clustered sampling end to
// end: segments cluster by their basic-block vectors, one
// representative per phase is timed, the served estimate lands near the
// monolithic truth, and the estimate never shares the monolithic cache
// key, in either direction.
func TestEnginePhaseSampling(t *testing.T) {
	w := []string{"micro.branchy"}
	eng := NewEngine()
	want, err := eng.RunMatrix([]Config{BaselineConfig()}, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetPhaseSampling(8, 3); err != nil {
		t.Fatal(err)
	}
	runs := recordRuns(eng)
	got, err := eng.RunMatrix([]Config{BaselineConfig()}, w)
	if err != nil {
		t.Fatal(err)
	}
	// The estimate must not be served the monolithic result.
	if cs := eng.CacheStats(); cs.Misses != 2 {
		t.Errorf("phase plan shared the monolithic key: %+v", cs)
	}
	ms := runs()
	if len(ms) != 1 || ms[0].Segments == nil {
		t.Fatalf("expected one run with segment metrics, got %+v", ms)
	}
	sm := ms[0].Segments
	if sm.Phases < 1 || sm.Phases > 3 || sm.Phases >= sm.Segments {
		t.Errorf("phase plan: %d phases of %d segments", sm.Phases, sm.Segments)
	}
	if ts := eng.TraceStats(); ts.SegmentRuns != 1 || ts.SegmentsSimulated != sm.Phases {
		t.Errorf("trace stats: %d segment runs, %d segments simulated, want 1 and %d", ts.SegmentRuns, ts.SegmentsSimulated, sm.Phases)
	}
	trueIPC := want[0][0].IPC()
	if ipc := got[0][0].IPC(); ipc < trueIPC*0.8 || ipc > trueIPC*1.2 {
		t.Errorf("served IPC %.3f not within 20%% of monolithic %.3f", ipc, trueIPC)
	}
	// Nor may the estimate poison the monolithic key: switching sampling
	// off recalls the monolithic result.
	if err := eng.SetPhaseSampling(0, 0); err != nil {
		t.Fatal(err)
	}
	again, err := eng.RunMatrix([]Config{BaselineConfig()}, w)
	if err != nil {
		t.Fatal(err)
	}
	if cs := eng.CacheStats(); cs.Misses != 2 || cs.Saved() != 1 {
		t.Errorf("monolithic rerun after the phase plan: %+v", cs)
	}
	if again[0][0].Cycles != want[0][0].Cycles {
		t.Errorf("monolithic rerun served %d cycles, want %d", again[0][0].Cycles, want[0][0].Cycles)
	}
}

// TestPhaseSampledIPCServed pins that a phase-sampled run serves the
// phase-weighted whole-run estimate, not the sum of its representatives:
// on go at 4 phases of 16 segments the served IPC is within 1% of the
// monolithic run's (the raw sum of the four timed windows is 3.4% low).
func TestPhaseSampledIPCServed(t *testing.T) {
	cfg := []Config{BaselineConfig()}
	w := []string{"go"}
	mono, err := NewEngine().RunMatrix(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	if err := eng.SetPhaseSampling(16, 4); err != nil {
		t.Fatal(err)
	}
	runs := recordRuns(eng)
	got, err := eng.RunMatrix(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	exact, served := mono[0][0].IPC(), got[0][0].IPC()
	if e := (served - exact) / exact * 100; math.Abs(e) > 1 {
		t.Errorf("served IPC %.4f is %+.2f%% off the monolithic %.4f", served, e, exact)
	}
	if m := runs()[0]; m.IPC != served {
		t.Errorf("run metrics report IPC %v, the served stats %v", m.IPC, served)
	}
}

// TestSegKeySuffixCoversPlan changes every segPlan field in turn, through
// SetPhaseSampling, and requires segKeySuffix to change: a plan field
// missing from the key would let one plan's estimate be served for
// another's. A segPlan field without a setter here fails the test until
// it is classified.
func TestSegKeySuffixCoversPlan(t *testing.T) {
	setters := map[string]func(*Engine) error{
		"k":      func(e *Engine) error { return e.SetPhaseSampling(5, 2) },
		"phases": func(e *Engine) error { return e.SetPhaseSampling(4, 3) },
	}
	base := func() *Engine {
		e := NewEngine()
		if err := e.SetPhaseSampling(4, 2); err != nil {
			t.Fatal(err)
		}
		return e
	}
	baseSuffix := base().segKeySuffix()
	if baseSuffix == "" {
		t.Fatal("phase plan shares the monolithic key")
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
		if err := set(e); err != nil {
			t.Fatal(err)
		}
		if e.segKeySuffix() == baseSuffix {
			t.Errorf("segPlan.%s: changing it did not change segKeySuffix", name)
		}
	}
}
