package trace

import (
	"testing"
)

// TestBoundariesCaptured pins the capture-side invariants of the
// warm-start table: one boundary every boundaryInterval records, with
// monotonically increasing stream positions inside the packed stream.
func TestBoundariesCaptured(t *testing.T) {
	p := mustProgram(t, "compress")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	want := int(tr.Steps() / boundaryInterval)
	if tr.Boundaries() != want {
		t.Fatalf("%d boundaries for %d steps, want %d", tr.Boundaries(), tr.Steps(), want)
	}
	var prev Boundary
	for i, b := range tr.bounds {
		if b.Step != uint64(i+1)*boundaryInterval {
			t.Fatalf("boundary %d at step %d, want %d", i, b.Step, uint64(i+1)*boundaryInterval)
		}
		if b.Pos <= prev.Pos || b.Pos > tr.packedLen {
			t.Fatalf("boundary %d pos %d not increasing within the stream (prev %d)", i, b.Pos, prev.Pos)
		}
		if b.PC >= uint32(len(p.Text)) {
			t.Fatalf("boundary %d pc %d outside text", i, b.PC)
		}
		prev = b
	}
}

// TestReaderAtBoundaryMatchesSequential is the seek correctness
// differential: a Reader opened at a stored boundary must produce the
// identical record suffix as a fresh Reader stepped to the same point.
func TestReaderAtBoundaryMatchesSequential(t *testing.T) {
	p := mustProgram(t, "micro.branchy")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Boundaries() == 0 {
		t.Fatalf("micro.branchy (%d steps) has no boundaries; shrink boundaryInterval or pick a longer workload", tr.Steps())
	}
	b := tr.bounds[tr.Boundaries()/2]
	seq := NewReader(tr)
	for i := uint64(0); i < b.Step; i++ {
		if _, err := seq.Step(); err != nil {
			t.Fatal(err)
		}
	}
	at, err := NewReaderAt(tr, b)
	if err != nil {
		t.Fatal(err)
	}
	if at.PC() != seq.PC() {
		t.Fatalf("seeked reader pc %d, sequential %d", at.PC(), seq.PC())
	}
	for {
		want, werr := seq.Step()
		got, gerr := at.Step()
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error divergence: sequential %v, seeked %v", werr, gerr)
		}
		if werr != nil {
			break
		}
		if got != want {
			t.Fatalf("record divergence: sequential %+v, seeked %+v", want, got)
		}
	}
	if !at.Halted() {
		t.Fatal("seeked reader not halted at end of trace")
	}
}

// TestSegmentsPartition pins that Segments is an exact partition of the
// trace and degrades gracefully when the trace has fewer boundaries
// than requested cuts.
func TestSegmentsPartition(t *testing.T) {
	p := mustProgram(t, "compress")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 8, 1 << 20} {
		segs := tr.Segments(k)
		if len(segs) < 1 || len(segs) > k {
			t.Fatalf("Segments(%d) returned %d segments", k, len(segs))
		}
		if segs[0].Start.Step != 0 || segs[len(segs)-1].End.Step != tr.Steps() {
			t.Fatalf("Segments(%d) does not span the trace: [%d, %d)", k, segs[0].Start.Step, segs[len(segs)-1].End.Step)
		}
		for i, s := range segs {
			if s.Index != i {
				t.Fatalf("segment %d carries index %d", i, s.Index)
			}
			if s.Steps() == 0 {
				t.Fatalf("Segments(%d): empty segment %d", k, i)
			}
			if i > 0 && segs[i-1].End != s.Start {
				t.Fatalf("Segments(%d): gap between segment %d and %d", k, i-1, i)
			}
		}
	}
	// Absurd k degrades to at most one segment per boundary + 1.
	if got := len(tr.Segments(1 << 20)); got > tr.Boundaries()+1 {
		t.Fatalf("Segments(1<<20) = %d segments from %d boundaries", got, tr.Boundaries())
	}
}

// TestWarmStart pins warm-start boundary selection: zero warmup is the
// segment's own start, and a finite warmup backs up far enough to cover
// at least the requested records.
func TestWarmStart(t *testing.T) {
	p := mustProgram(t, "compress")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	segs := tr.Segments(4)
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	seg := segs[2]
	if ws := tr.WarmStart(seg, 0); ws != seg.Start {
		t.Errorf("zero warmup starts at %+v, want the segment start %+v", ws, seg.Start)
	}
	w := uint64(2 * boundaryInterval)
	ws := tr.WarmStart(seg, w)
	if ws.Step > seg.Start.Step-w {
		t.Errorf("warmup %d covers only %d records", w, seg.Start.Step-ws.Step)
	}
	// A warmup longer than the prefix clamps to the start.
	if ws := tr.WarmStart(segs[0], 10); ws.Step != 0 {
		t.Errorf("over-long warmup starts at step %d, want 0", ws.Step)
	}
}

// TestDiskRoundTripBounds pins that a trace file round-trips the
// boundary table exactly.
func TestDiskRoundTripBounds(t *testing.T) {
	p := mustProgram(t, "micro.branchy")
	dir := t.TempDir()
	tr, err := CaptureToDir(p, maxInsts, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	got, err := ReadFile(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if got.Boundaries() != tr.Boundaries() {
		t.Fatalf("round trip kept %d boundaries, want %d", got.Boundaries(), tr.Boundaries())
	}
	for i := range tr.bounds {
		if got.bounds[i] != tr.bounds[i] {
			t.Fatalf("boundary %d round-tripped as %+v, want %+v", i, got.bounds[i], tr.bounds[i])
		}
	}
}
