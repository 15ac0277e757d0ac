package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/errclass"
	"repro/internal/isa"
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

// FuzzTraceFooter feeds arbitrary trace files to readFrom, the one
// parser ReadFile uses. An input is a footer, a header (magic and
// program hash) and an edit of the seed trace's packed stream: cut
// drops that many bytes off its end, and flipBits is XORed into the
// byte at flipAt. The trailer is rebuilt around each footer, so a
// mutation reaches parseFooter and the chunk checks instead of stopping
// at the footer checksum. The parser must accept the file or fail with
// errclass.ErrCorrupt; an accepted trace must replay, from its start and
// from every stored boundary (every point WarmStart can return), to its
// halt or to an errclass.ErrCorrupt, and must cluster into phases.
// Nothing may panic or fail unclassified.
//
// The seeds cover each check of the layout: a valid file, a truncated
// footer, a footer without a BBV profile, a stale format version,
// another build's program hash, a stream one byte shorter than the
// footer says, a last chunk cut short under a footer rewritten to match
// (so only the decoder can notice), and a chunk whose bytes fail their
// checksum.
func FuzzTraceFooter(f *testing.F) {
	tr := footerSeedTrace(f)
	body, footer := splitFooter(fileBytes(f, tr))
	header, stream := body[:fileHeaderLen], body[fileHeaderLen:]
	f.Add(footer, header, uint32(0), uint32(0), byte(0))
	f.Add(footer[:len(footer)/2], header, uint32(0), uint32(0), byte(0))
	noProfile := *tr
	noProfile.bbv = BBV{}
	f.Add(appendFooter(nil, &noProfile), header, uint32(0), uint32(0), byte(0))
	stale := append([]byte(nil), header...)
	stale[7] = 2
	f.Add(footer, stale, uint32(0), uint32(0), byte(0))
	otherBuild := append([]byte(nil), header...)
	otherBuild[8] ^= 1
	f.Add(footer, otherBuild, uint32(0), uint32(0), byte(0))
	f.Add(footer, header, uint32(1), uint32(0), byte(0))
	short, cut := truncatedFooter(tr, body)
	f.Add(short, header, cut, uint32(0), byte(0))
	f.Add(footer, header, uint32(0), uint32(len(stream)/2), byte(0x40))
	f.Fuzz(func(t *testing.T, footer, header []byte, cut, flipAt uint32, flipBits byte) {
		n := len(stream) - int(min(cut, uint32(len(stream))))
		file := append(append([]byte(nil), header...), stream[:n]...)
		if n > 0 {
			file[len(header)+int(flipAt%uint32(n))] ^= flipBits
		}
		got, err := parseBytes(withFooter(file, footer), tr.prog)
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
			body, _ := splitFooter(fileBytes(t, tr))
			tc.mutate(&tr.bbv)
			if _, err := parseBytes(withFooter(body, appendFooter(nil, tr)), tr.prog); !errors.Is(err, errclass.ErrCorrupt) {
				t.Errorf("load error %v, want errclass.ErrCorrupt", err)
			}
		})
	}
}

// parseBytes parses an in-memory trace file.
func parseBytes(file []byte, p *isa.Program) (*Trace, error) {
	return readFrom(bytes.NewReader(file), int64(len(file)), "(fuzz input)", p)
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
	tb.Cleanup(func() { tr.Close() })
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

// withFooter reassembles a trace file from body and footer, rebuilding
// the trailer's length and checksum.
func withFooter(body, footer []byte) []byte {
	return appendTrailer(append(append([]byte(nil), body...), footer...), footer)
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
