package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/emu"
)

// TestCaptureToDirMatchesMemory pins that the two capture paths make
// one trace: Capture's anonymous file and CaptureToDir's canonical one
// hold the same bytes, replay the same records and carry the same
// boundaries and basic-block vectors, and two CaptureToDir runs into
// different directories write byte-identical files.
func TestCaptureToDirMatchesMemory(t *testing.T) {
	p := mustProgram(t, "compress")
	anon, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	if anon.Path() != "" {
		t.Fatalf("anonymous capture has canonical path %q, want none", anon.Path())
	}
	var files [2][]byte
	var streamed *Trace
	for i := range files {
		dir := t.TempDir()
		tr, err := CaptureToDir(p, maxInsts, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if tr.Path() != DiskPath(dir, p) {
			t.Fatalf("streamed capture at %q, want canonical %q", tr.Path(), DiskPath(dir, p))
		}
		if files[i], err = os.ReadFile(tr.Path()); err != nil {
			t.Fatal(err)
		}
		if tr.Footprint() != int64(len(files[i])) {
			t.Fatalf("footprint %d bytes, file %d", tr.Footprint(), len(files[i]))
		}
		streamed = tr
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatal("CaptureToDir wrote different bytes into two directories")
	}
	if !bytes.Equal(fileBytes(t, anon), files[0]) {
		t.Fatal("Capture's anonymous file differs from CaptureToDir's")
	}
	ra, rs := NewReader(anon), NewReader(streamed)
	for {
		a, aerr := ra.Step()
		s, serr := rs.Step()
		if aerr != nil || serr != nil {
			if !errors.Is(aerr, emu.ErrHalted) || !errors.Is(serr, emu.ErrHalted) {
				t.Fatalf("replay ended with %v (anonymous) and %v (streamed)", aerr, serr)
			}
			break
		}
		if a != s {
			t.Fatalf("streamed trace diverges: %+v vs %+v", s, a)
		}
	}
	if !slices.Equal(anon.bounds, streamed.bounds) {
		t.Fatal("the two captures differ in their boundaries")
	}
	if anon.bbv.Dim != streamed.bbv.Dim || anon.bbv.Interval != streamed.bbv.Interval ||
		!slices.Equal(anon.bbv.Counts, streamed.bbv.Counts) {
		t.Fatal("the two captures differ in their BBV profiles")
	}
}

// writeV2File hand-writes a structurally valid version-2 trace file —
// old magic, old layout, correct whole-file checksum — so the rejection
// test proves v2 files fail on *version*, not incidentally on checksum.
func writeV2File(t *testing.T, path string, ph [32]byte) {
	t.Helper()
	var buf []byte
	buf = append(buf, 'C', 'E', 'T', 'R', 'A', 'C', 'E', 2)
	buf = append(buf, ph[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // entryPC
	buf = binary.LittleEndian.AppendUint64(buf, 1) // steps
	buf = binary.LittleEndian.AppendUint32(buf, 0) // nOutput
	var state [32]byte
	buf = append(buf, state[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, 0) // packedLen
	buf = binary.LittleEndian.AppendUint32(buf, 0) // nBounds
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStaleV2Rejected pins the v2→v3 migration path: a v2 file in the
// canonical slot is rejected with ErrStaleFormat, a message naming the
// versions, and removal of the file so the slot recaptures — mirroring
// how v1 files were retired by the v2 format.
func TestStaleV2Rejected(t *testing.T) {
	p := mustProgram(t, "micro.chain")
	dir := t.TempDir()
	path := DiskPath(dir, p)
	writeV2File(t, path, ProgHash(p))

	_, err := ReadFile(dir, p)
	if err == nil {
		t.Fatal("ReadFile accepted a v2 trace file")
	}
	if !errors.Is(err, ErrStaleFormat) {
		t.Fatalf("v2 file rejected with %v, want ErrStaleFormat", err)
	}
	if !strings.Contains(err.Error(), "format v2 < v3") || !strings.Contains(err.Error(), "recapturing") {
		t.Fatalf("v2 rejection message %q does not name the versions", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale v2 file was not removed")
	}
	// The slot is free: a fresh capture persists and loads as v3.
	tr, err := CaptureToDir(p, maxInsts, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	got, err := ReadFile(dir, p)
	if err != nil {
		t.Fatalf("recaptured slot does not load: %v", err)
	}
	got.Close()
}

// TestSegmentBBV pins the phase fingerprints: vectors are L1-normalized,
// sized bbvDim, and the whole-trace vector is the weighted mix of the
// segment vectors.
func TestSegmentBBV(t *testing.T) {
	p := mustProgram(t, "compress")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	wantIntervals := int((tr.Steps() + bbvInterval - 1) / bbvInterval)
	if got := tr.bbv.Intervals(); got != wantIntervals {
		t.Fatalf("%d BBV intervals for %d steps, want %d", got, tr.Steps(), wantIntervals)
	}
	segs := tr.Segments(8)
	for _, s := range segs {
		v := tr.SegmentBBV(s)
		if len(v) != bbvDim {
			t.Fatalf("segment %d vector has %d dims, want %d", s.Index, len(v), bbvDim)
		}
		var sum float64
		for _, x := range v {
			if x < 0 {
				t.Fatalf("segment %d vector has negative weight", s.Index)
			}
			sum += x
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("segment %d vector sums to %f, want 1", s.Index, sum)
		}
	}
}

// TestPhasePartition pins the clustering on synthetic vectors with two
// unmistakable behaviors: the partition must separate them, weight them
// by mass, and pick representatives from the right sides.
func TestPhasePartition(t *testing.T) {
	a := []float64{1, 0, 0, 0}
	b := []float64{0, 0, 0, 1}
	vecs := [][]float64{a, a, b, a, b, b, a}
	weights := []float64{1, 1, 2, 1, 2, 2, 1}
	phases := PhasePartition(vecs, weights, 2)
	if len(phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(phases))
	}
	var wSum float64
	for _, ph := range phases {
		wSum += ph.Weight
		side := vecs[ph.Rep][0] > 0.5
		for _, m := range ph.Members {
			if (vecs[m][0] > 0.5) != side {
				t.Fatalf("phase mixes behaviors: members %v", ph.Members)
			}
		}
	}
	if wSum < 0.999 || wSum > 1.001 {
		t.Fatalf("phase weights sum to %f, want 1", wSum)
	}
	// Deterministic: the same inputs repartition identically.
	again := PhasePartition(vecs, weights, 2)
	for i := range phases {
		if phases[i].Rep != again[i].Rep || phases[i].Weight != again[i].Weight {
			t.Fatal("PhasePartition is not deterministic")
		}
	}
	// Degenerate inputs degrade, never error.
	if got := PhasePartition([][]float64{a, a, a}, []float64{1, 1, 1}, 2); len(got) != 1 {
		t.Fatalf("identical vectors clustered into %d phases, want 1", len(got))
	}
	if got := PhasePartition(nil, nil, 4); got != nil {
		t.Fatalf("empty input produced %d phases", len(got))
	}
}
