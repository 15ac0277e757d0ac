package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/errclass"
)

// footerSeedSrc runs 70,000 instructions (two warm-start boundaries)
// through every record class that carries payload bytes: loads, stores,
// conditional branches and register jumps.
const footerSeedSrc = `
	.text
	li   $s0, 10000
	li   $t0, 0x1000
loop:	sw   $s0, 0($t0)
	lw   $t1, 0($t0)
	jal  f
	addi $s0, $s0, -1
	bgtz $s0, loop
	out  $s0
	halt
f:	addi $t2, $t1, 1
	jr   $ra
`

// FuzzTraceFooter feeds arbitrary footers to the trace loader. The
// footer checksum and trailer are rebuilt around each input, so a
// mutation reaches parseFooter instead of stopping at the checksum. The
// loader must accept the file or fail with errclass.ErrCorrupt; an
// accepted trace must replay, from its start and from every stored
// boundary (every point WarmStart can return), to its halt or to an
// errclass.ErrCorrupt, and must cluster into phases. Nothing may panic
// or fail unclassified. One seed carries no BBV profile (Dim = 0), which
// the loader must reject.
func FuzzTraceFooter(f *testing.F) {
	tr := footerSeedTrace(f)
	body, footer := splitFooter(tr.Marshal())
	f.Add(footer)
	f.Add(footer[:len(footer)/2])
	tr.bbv = BBV{}
	_, noProfile := splitFooter(tr.Marshal())
	f.Add(noProfile)
	f.Fuzz(func(t *testing.T, footer []byte) {
		got, err := Unmarshal(withFooter(body, footer), tr.prog)
		if err != nil {
			if !errors.Is(err, errclass.ErrCorrupt) {
				t.Fatalf("unclassified load error: %v", err)
			}
			return
		}
		for _, b := range append([]Boundary{got.startBoundary()}, got.bounds...) {
			replayFrom(t, got, b)
		}
		if len(got.SegmentPhases(got.Segments(4), 2)) == 0 {
			t.Fatalf("accepted trace clusters into no phases (bbv %d×%d, %d counts)",
				got.bbv.Dim, got.bbv.Interval, len(got.bbv.Counts))
		}
	})
}

// TestFooterRejectsPartialProfile pins the loader's BBV checks: a
// footer whose profile has the wrong vector size, the wrong interval,
// or too few or too many vectors for the trace's steps fails to load
// with errclass.ErrCorrupt.
func TestFooterRejectsPartialProfile(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*BBV)
	}{
		{"no_profile", func(b *BBV) { *b = BBV{} }},
		{"dim", func(b *BBV) { b.Dim = bbvDim / 2 }},
		{"interval", func(b *BBV) { b.Interval = bbvInterval * 2 }},
		{"missing_interval", func(b *BBV) { b.Counts = b.Counts[:len(b.Counts)-bbvDim] }},
		{"extra_interval", func(b *BBV) { b.Counts = append(b.Counts, make([]uint32, bbvDim)...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := footerSeedTrace(t)
			tc.mutate(&tr.bbv)
			if _, err := Unmarshal(tr.Marshal(), tr.prog); !errors.Is(err, errclass.ErrCorrupt) {
				t.Errorf("load error %v, want errclass.ErrCorrupt", err)
			}
		})
	}
}

// footerSeedTrace captures footerSeedSrc.
func footerSeedTrace(tb testing.TB) *Trace {
	tb.Helper()
	p, err := asm.Assemble("footer.s", footerSeedSrc)
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := Capture(p, maxInsts)
	if err != nil {
		tb.Fatal(err)
	}
	if tr.Boundaries() == 0 {
		tb.Fatal("seed trace has no warm-start boundaries")
	}
	return tr
}

// splitFooter splits a serialized trace into everything before its
// footer and the footer itself, dropping the trailer.
func splitFooter(data []byte) (body, footer []byte) {
	footerLen := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	footerAt := len(data) - trailerLen - int(footerLen)
	return data[:footerAt], data[footerAt : len(data)-trailerLen]
}

// withFooter reassembles a serialized trace from body and footer,
// rebuilding the trailer's length and checksum.
func withFooter(body, footer []byte) []byte {
	file := append(append([]byte(nil), body...), footer...)
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(len(footer)))
	sum := sha256.Sum256(footer)
	copy(trailer[8:], sum[:])
	return append(file, trailer[:]...)
}

// replayFrom steps a reader opened at b until the trace halts or reports
// corruption.
func replayFrom(t *testing.T, tr *Trace, b Boundary) {
	r, err := NewReaderAt(tr, b)
	if err != nil {
		if !errors.Is(err, errclass.ErrCorrupt) {
			t.Fatalf("boundary %+v: unclassified open error: %v", b, err)
		}
		return
	}
	defer r.Release()
	var rec emu.Record
	for {
		err := r.Next(&rec)
		if errors.Is(err, emu.ErrHalted) {
			return
		}
		if err != nil {
			if !errors.Is(err, errclass.ErrCorrupt) {
				t.Fatalf("boundary %+v: unclassified replay error: %v", b, err)
			}
			return
		}
	}
}
