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
// errclass.ErrCorrupt. Nothing may panic or fail unclassified.
func FuzzTraceFooter(f *testing.F) {
	p, err := asm.Assemble("footer.s", footerSeedSrc)
	if err != nil {
		f.Fatal(err)
	}
	tr, err := Capture(p, maxInsts)
	if err != nil {
		f.Fatal(err)
	}
	if tr.Boundaries() == 0 {
		f.Fatal("seed trace has no warm-start boundaries")
	}
	data := tr.Marshal()
	footerLen := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	footerAt := len(data) - trailerLen - int(footerLen)
	body, footer := data[:footerAt], data[footerAt:len(data)-trailerLen]
	f.Add(footer)
	f.Add(footer[:len(footer)/2])
	f.Fuzz(func(t *testing.T, footer []byte) {
		file := append(append([]byte(nil), body...), footer...)
		var trailer [trailerLen]byte
		binary.LittleEndian.PutUint64(trailer[:8], uint64(len(footer)))
		sum := sha256.Sum256(footer)
		copy(trailer[8:], sum[:])
		got, err := Unmarshal(append(file, trailer[:]...), p)
		if err != nil {
			if !errors.Is(err, errclass.ErrCorrupt) {
				t.Fatalf("unclassified load error: %v", err)
			}
			return
		}
		for _, b := range append([]Boundary{got.startBoundary()}, got.bounds...) {
			replayFrom(t, got, b)
		}
	})
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
