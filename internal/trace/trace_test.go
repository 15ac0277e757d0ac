package trace

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// maxInsts bounds test captures well above the longest workload.
const maxInsts = 50_000_000

func testPrograms(t *testing.T) []*isa.Program {
	t.Helper()
	var ps []*isa.Program
	for _, w := range prog.AllExtended() {
		p, err := w.Program()
		if err != nil {
			t.Fatalf("workload %s: %v", w.Name, err)
		}
		ps = append(ps, p)
	}
	for seed := int64(0); seed < 10; seed++ {
		p, err := prog.Random(prog.RandomConfig{Seed: seed})
		if err != nil {
			t.Fatalf("random seed %d: %v", seed, err)
		}
		ps = append(ps, p)
	}
	return ps
}

// TestReplayMatchesExecution is the core differential: for every
// workload and a spread of random programs, the replayed Record stream
// must be identical, record for record, to lockstep execution — and the
// trace's stored output and state hash must match the machine's.
func TestReplayMatchesExecution(t *testing.T) {
	for _, p := range testPrograms(t) {
		tr, err := Capture(p, maxInsts)
		if err != nil {
			t.Fatalf("%s: capture: %v", p.Name, err)
		}
		defer tr.Close()
		m := emu.New(p)
		r := NewReader(tr)
		var steps uint64
		for {
			want, werr := m.Step()
			got, gerr := r.Step()
			if !errors.Is(gerr, werr) && (gerr != nil || werr != nil) {
				t.Fatalf("%s step %d: machine err %v, replay err %v", p.Name, steps, werr, gerr)
			}
			if werr != nil {
				break
			}
			if got != want {
				t.Fatalf("%s step %d: machine %+v, replay %+v", p.Name, steps, want, got)
			}
			if got.PC != r.PC() && !r.Halted() {
				// PC() must track NextPC like emu.Machine.PC does.
				if r.PC() != got.NextPC {
					t.Fatalf("%s step %d: reader PC %d, want %d", p.Name, steps, r.PC(), got.NextPC)
				}
			}
			steps++
		}
		if steps != tr.Steps() {
			t.Fatalf("%s: replayed %d steps, trace has %d", p.Name, steps, tr.Steps())
		}
		if !r.Halted() || !m.Halted() {
			t.Fatalf("%s: halted mismatch: reader %v machine %v", p.Name, r.Halted(), m.Halted())
		}
		if tr.StateHash() != m.StateHash() {
			t.Fatalf("%s: trace state hash differs from machine", p.Name)
		}
		if len(tr.Output()) != len(m.Output) {
			t.Fatalf("%s: trace output %d values, machine %d", p.Name, len(tr.Output()), len(m.Output))
		}
		for i, v := range tr.Output() {
			if m.Output[i] != v {
				t.Fatalf("%s: output[%d] = %d, machine %d", p.Name, i, v, m.Output[i])
			}
		}
	}
}

// TestPackedDensity pins the format's figure of merit: the packed stream
// must stay near one byte per dynamic instruction on real workloads.
func TestPackedDensity(t *testing.T) {
	p := mustProgram(t, "compress")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	bpi := float64(tr.PackedBytes()) / float64(tr.Steps())
	if bpi > 2 {
		t.Fatalf("packed density %.2f bytes/inst, want ≤ 2", bpi)
	}
	t.Logf("compress: %d insts, %d packed bytes (%.3f bytes/inst)", tr.Steps(), tr.PackedBytes(), bpi)
}

func mustProgram(t *testing.T, name string) *isa.Program {
	t.Helper()
	w, err := prog.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReaderStepAllocFree guards the replay hot path: steady-state Step
// must not allocate, including the chunk refill from the trace's file
// (ReadAt + checksum verify into the pooled buffer).
func TestReaderStepAllocFree(t *testing.T) {
	p := mustProgram(t, "compress.big")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Chunks() < 2 {
		t.Fatalf("compress.big packs into %d chunk(s); the alloc guard must cross a chunk boundary", tr.Chunks())
	}
	// Position the cursor so the measured window crosses a chunk
	// boundary: the refill path must be allocation-free too.
	r := NewReader(tr)
	defer r.Release()
	for r.step < chunkRecords-50_000 {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100_000, func() {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reader.Step allocates %.1f times per call, want 0", allocs)
	}
}

// TestFileReaderStepAllocFree repeats the hot-path guard for a trace
// written to its canonical path and reopened with ReadFile: chunk
// refills from that file must not allocate either.
func TestFileReaderStepAllocFree(t *testing.T) {
	p := mustProgram(t, "compress.big")
	dir := t.TempDir()
	captured, err := CaptureToDir(p, maxInsts, dir)
	if err != nil {
		t.Fatal(err)
	}
	captured.Close()
	tr, err := ReadFile(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Chunks() < 2 {
		t.Fatalf("compress.big packs into %d chunk(s); the alloc guard must cross a chunk boundary", tr.Chunks())
	}
	r := NewReader(tr)
	defer r.Release()
	for r.step < chunkRecords-50_000 {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100_000, func() {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("file-backed Reader.Step allocates %.1f times per call, want 0", allocs)
	}
}

// TestNewRecorderRejectsUsedMachine covers the recorder's guards against
// a machine stepped outside it, at construction and during capture.
func TestNewRecorderRejectsUsedMachine(t *testing.T) {
	p := mustProgram(t, "micro.chain")
	m := emu.New(p)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecorder(m, p); err == nil {
		t.Fatal("NewRecorder accepted a machine with executed instructions")
	}

	// A machine advanced behind the recorder's back can no longer be
	// recorded: Step must fail permanently, not silently skip.
	m2 := emu.New(p)
	r2, err := NewRecorder(m2, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Step(); err == nil {
		t.Fatal("Step on an externally advanced machine succeeded, want error")
	}
	if _, err := r2.Step(); err == nil {
		t.Fatal("recorder error must be sticky")
	}
}

// TestDiskRoundTrip checks CaptureToDir and ReadFile, including the
// corrupt-file hardening the CLI relies on: bad bytes are rejected AND
// the file is removed so a recapture can fill the slot.
func TestDiskRoundTrip(t *testing.T) {
	p := mustProgram(t, "micro.stream")
	dir := t.TempDir()
	tr, err := CaptureToDir(p, maxInsts, dir)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	path := DiskPath(dir, p)
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	got, err := ReadFile(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps() != tr.Steps() || got.StateHash() != tr.StateHash() {
		t.Fatal("disk round trip changed the trace")
	}
	ref := emu.New(p)
	rd := NewReader(got)
	for !ref.Halted() {
		want, err := ref.Step()
		if err != nil {
			t.Fatal(err)
		}
		rec, err := rd.Step()
		if err != nil {
			t.Fatal(err)
		}
		if rec != want {
			t.Fatalf("loaded trace diverges: %+v vs %+v", rec, want)
		}
	}
	got.Close()

	// Truncation: checksum fails, file is deleted.
	if err := os.WriteFile(path, a[:len(a)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(dir, p); err == nil {
		t.Fatal("ReadFile accepted a truncated trace")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("truncated trace file was not removed")
	}

	// Bit rot inside the footer: the open-time checksum fails, file is
	// deleted.
	bad := append([]byte(nil), a...)
	bad[len(bad)-trailerLen-5] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(dir, p); err == nil {
		t.Fatal("ReadFile accepted a trace with a corrupt footer")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt trace file was not removed")
	}

	// Bit rot inside the chunk data: open succeeds (the stream is not
	// re-read), but the poisoned chunk fails its checksum at load time —
	// a reader can never decode torn bytes.
	bad = append([]byte(nil), a...)
	bad[fileHeaderLen+tr.PackedBytes()/2] ^= 0x40
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	rotten, err := ReadFile(dir, p)
	if err != nil {
		t.Fatalf("ReadFile rejected a trace whose footer is intact: %v", err)
	}
	sawCorrupt := false
	rd = NewReader(rotten)
	for {
		if _, err := rd.Step(); err != nil {
			if errors.Is(err, emu.ErrHalted) {
				break
			}
			if !errors.Is(err, ErrCorruptChunk) {
				t.Fatalf("rotten chunk surfaced as %v, want ErrCorruptChunk", err)
			}
			sawCorrupt = true
			break
		}
	}
	if !sawCorrupt {
		t.Fatal("reader replayed a trace with a rotten chunk to completion")
	}
	if err := rotten.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Invalidate did not remove the rotten trace file")
	}
	// A reader still using the invalidated trace reports the corruption
	// that invalidated it, not a closed-file error.
	if _, err := NewReader(rotten).Step(); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("read after Invalidate surfaced as %v, want ErrCorruptChunk", err)
	}

	// A different program's trace in this program's slot: rejected.
	other, err := CaptureToDir(mustProgram(t, "micro.chain"), maxInsts, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	other.Close()
	otherBytes, err := os.ReadFile(other.Path())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, otherBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(dir, p); err == nil {
		t.Fatal("ReadFile accepted a trace for a different program")
	}

	// Missing file surfaces os.ErrNotExist so callers can distinguish
	// "capture needed" from "I/O trouble".
	if _, err := ReadFile(dir, p); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing trace: err %v, want os.ErrNotExist", err)
	}

	// Stray temp files must not be mistaken for traces.
	if err := os.WriteFile(filepath.Join(dir, "trace-stray.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(dir, p); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp file changed lookup: err %v", err)
	}
}

// TestReaderCorruptStream checks the decoder's own truncation guard. The
// last chunk is cut short and the footer rewritten to match, so every
// checksum in the file holds and only the decoder can notice: it must
// run out of packed bytes before it runs out of records.
func TestReaderCorruptStream(t *testing.T) {
	p := mustProgram(t, "micro.branchy")
	dir := t.TempDir()
	tr, err := CaptureToDir(p, maxInsts, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	data := fileBytes(t, tr)
	footer, cut := truncatedFooter(tr, data)
	if err := os.WriteFile(tr.Path(), withFooter(data[:fileHeaderLen+tr.packedLen-uint64(cut)], footer), 0o644); err != nil {
		t.Fatal(err)
	}
	trunc, err := ReadFile(dir, p)
	if err != nil {
		t.Fatalf("ReadFile rejected a file whose checksums all hold: %v", err)
	}
	defer trunc.Close()
	r := NewReader(trunc)
	for {
		_, err := r.Step()
		if errors.Is(err, emu.ErrHalted) {
			t.Fatal("truncated stream replayed to completion")
		}
		if err != nil {
			if !errors.Is(err, errCorrupt) {
				t.Fatalf("truncated stream surfaced as %v, want the decoder's errCorrupt", err)
			}
			break
		}
	}
}

// fileBytes reads tr's whole file.
func fileBytes(tb testing.TB, tr *Trace) []byte {
	tb.Helper()
	data := make([]byte, tr.Footprint())
	if _, err := tr.store.r.ReadAt(data, 0); err != nil {
		tb.Fatal(err)
	}
	return data
}

// truncatedFooter returns the footer of tr, whose file begins with data
// (header and packed stream), with its last chunk cut to half its bytes, and how many bytes the cut
// removes from the packed stream. The footer's chunk length, chunk
// checksum and stream length all match the shortened stream;
// boundaries past the cut are dropped.
func truncatedFooter(tr *Trace, data []byte) (footer []byte, cut uint32) {
	short := *tr
	short.chunks = append([]chunkMeta(nil), tr.chunks...)
	last := &short.chunks[len(short.chunks)-1]
	cut = last.packedLen - last.packedLen/2
	last.packedLen -= cut
	start := fileHeaderLen + last.startPos
	last.sum = sha256.Sum256(data[start : start+uint64(last.packedLen)])
	short.packedLen -= uint64(cut)
	short.bounds = nil
	for _, b := range tr.bounds {
		if b.Pos <= short.packedLen {
			short.bounds = append(short.bounds, b)
		}
	}
	return appendFooter(nil, &short), cut
}
