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

// eqDeterministic compares every deterministic Stats field (host
// telemetry legitimately differs between runs).
func eqDeterministic(t *testing.T, label string, got, want Stats) {
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
	eqDeterministic(t, "run-until-committed", got, want)
}

// TestSegmentStitchingExact is the package-level exactness differential:
// full-warmup segment runs stitched together must reproduce the
// monolithic run bit for bit — every counter, every histogram bucket.
func TestSegmentStitchingExact(t *testing.T) {
	tr := captureWorkload(t, "micro.branchy")
	for _, mk := range []struct {
		name string
		c    Config
	}{
		{"window", cfg("window", 1, 0, window64)},
		{"fifos", cfg("fifos", 1, 0, fifos8x8)},
	} {
		c := mk.c
		c.PerfectBPred = false
		sim, err := NewReplay(c, trace.NewReader(tr))
		if err != nil {
			t.Fatal(err)
		}
		mono, err := sim.Run(50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		segs := tr.Segments(4)
		if len(segs) < 2 {
			t.Fatalf("micro.branchy yielded %d segments, want ≥ 2", len(segs))
		}
		parts := make([]Stats, len(segs))
		for i, seg := range segs {
			parts[i], _, err = RunSegment(c, tr, seg, -1, 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if parts[i].Committed == 0 {
				t.Fatalf("%s segment %d committed nothing", mk.name, i)
			}
		}
		stitched, err := StitchStats(parts)
		if err != nil {
			t.Fatal(err)
		}
		eqDeterministic(t, mk.name+" stitched", stitched, mono)
	}
}

// TestSegmentFiniteWarmupApproximates pins the sampled-mode contract:
// finite warmup commits exactly the window instructions per segment and
// lands near — not necessarily on — the monolithic cycle count.
func TestSegmentFiniteWarmupApproximates(t *testing.T) {
	tr := captureWorkload(t, "micro.branchy")
	c := cfg("warm", 1, 0, window64)
	c.PerfectBPred = false
	sim, err := NewReplay(c, trace.NewReader(tr))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := sim.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	segs := tr.Segments(4)
	var parts []Stats
	for _, seg := range segs {
		st, _, err := RunSegment(c, tr, seg, 1<<14, 50_000_000)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, st)
	}
	stitched, err := StitchStats(parts)
	if err != nil {
		t.Fatal(err)
	}
	// Commit-width overshoot at the warmup horizon can shift a handful of
	// instructions between warmup and window; the totals stay within one
	// retire width per seam.
	slack := uint64(len(segs) * c.RetireWidth)
	if stitched.Committed < tr.Steps()-slack || stitched.Committed > tr.Steps()+slack {
		t.Errorf("stitched committed %d, monolithic %d (slack %d)", stitched.Committed, tr.Steps(), slack)
	}
	lo := float64(mono.Cycles) * 0.9
	hi := float64(mono.Cycles) * 1.1
	if f := float64(stitched.Cycles); f < lo || f > hi {
		t.Errorf("stitched cycles %d not within 10%% of monolithic %d", stitched.Cycles, mono.Cycles)
	}
}
