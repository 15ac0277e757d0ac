package pipeline

import (
	"testing"

	"repro/internal/prog"
	"repro/internal/trace"
)

func captureWorkload(t *testing.T, name string) *trace.Trace {
	t.Helper()
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
	return tr
}

// TestRunUntilCommittedMatchesRun pins that the commit-horizon loop with
// the final target is the same run as Run: the warm-start seam may not
// perturb the simulation it snapshots.
func TestRunUntilCommittedMatchesRun(t *testing.T) {
	tr := captureWorkload(t, "micro.branchy")
	c := cfg("seg", 1, 0, window64)
	c.PerfectBPred = false

	simA, err := NewReplay(c, trace.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	want, err := simA.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	simB, err := NewReplay(c, trace.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	// Stop at an interior horizon first: the extra snapshot must not
	// change where the run ends up.
	if _, err := simB.RunUntilCommitted(tr.Steps()/2, 50_000_000); err != nil {
		t.Fatal(err)
	}
	got, err := simB.RunUntilCommitted(tr.Steps(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffStats(got, want); err != nil {
		t.Errorf("run-until-committed diverges from Run: %v", err)
	}
}

// TestWeightStats pins the phase estimate's arithmetic: two
// representatives standing for weights w of a run of steps instructions
// are scaled by w·steps/Committed and summed, so Committed lands on
// steps, Cycles on each phase's instructions retired at its
// representative's IPC, and host telemetry sums unscaled.
func TestWeightStats(t *testing.T) {
	tr := captureWorkload(t, "micro.branchy")
	c := cfg("weight", 1, 0, window64)
	c.PerfectBPred = false
	segs := tr.Segments(4)
	if len(segs) < 2 {
		t.Fatalf("micro.branchy yielded %d segments, want ≥ 2", len(segs))
	}
	parts := make([]Stats, 2)
	for i := range parts {
		var err error
		parts[i], _, err = RunSegment(c, tr, segs[i], 1<<13, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
	}
	weights := []float64{0.25, 0.75}
	steps := tr.Steps()
	got, err := WeightStats(c, parts, weights, steps)
	if err != nil {
		t.Fatal(err)
	}
	if d := int64(got.Committed) - int64(steps); d < -1 || d > 1 {
		t.Errorf("weighted committed %d, want the run's %d steps", got.Committed, steps)
	}
	wantCycles := 0.0
	for i, p := range parts {
		wantCycles += weights[i] * float64(steps) / p.IPC()
	}
	if d := float64(got.Cycles) - wantCycles; d < -1 || d > 1 {
		t.Errorf("weighted cycles %d, want %.1f", got.Cycles, wantCycles)
	}
	if d := int64(got.IssuedPerCycle.Total()) - got.Cycles; d < -int64(c.IssueWidth+1) || d > int64(c.IssueWidth+1) {
		t.Errorf("issue histogram records %d cycles, weighted run has %d", got.IssuedPerCycle.Total(), got.Cycles)
	}
	if got.HostAllocs != parts[0].HostAllocs+parts[1].HostAllocs {
		t.Errorf("host allocs %d scaled, want the unscaled sum", got.HostAllocs)
	}
	// A lone representative of the whole run, weighted by its own share,
	// reproduces itself.
	self, err := WeightStats(c, parts[:1], []float64{1}, parts[0].Committed)
	if err != nil {
		t.Fatal(err)
	}
	if err := DiffStats(self, parts[0]); err != nil {
		t.Errorf("self-weighted representative diverges from itself: %v", err)
	}

	// A synthetic representative whose counters all differ, weighted to
	// three times its own length, triples every table counter.
	syn := numbered(1)
	tripled, err := WeightStats(c, []Stats{syn}, []float64{1}, 3*syn.Committed)
	if err != nil {
		t.Fatal(err)
	}
	for i, ct := range counters {
		if got, want := *ct.of(&tripled), 3*uint64(i+1); got != want {
			t.Errorf("weighted %s = %d, want %d", ct.name, got, want)
		}
	}

	if _, err := WeightStats(c, parts, weights[:1], steps); err == nil {
		t.Error("mismatched weights accepted")
	}
	empty := parts[1]
	empty.Committed = 0
	if _, err := WeightStats(c, []Stats{parts[0], empty}, weights, steps); err == nil {
		t.Error("a representative that committed nothing accepted")
	}
}
