package trace

import (
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
// must not allocate.
func TestReaderStepAllocFree(t *testing.T) {
	p := mustProgram(t, "compress.big")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Chunks() < 2 {
		t.Fatalf("compress.big packs into %d chunk(s); the alloc guard must cross a chunk boundary", tr.Chunks())
	}
	// Position the cursor so the measured window crosses a chunk
	// boundary: the refill path must be allocation-free too.
	r := NewReader(tr)
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

// TestFileReaderStepAllocFree repeats the hot-path guard for file-backed
// traces: chunk refills from disk (ReadAt + checksum verify into the
// pooled buffer) must not allocate either.
func TestFileReaderStepAllocFree(t *testing.T) {
	p := mustProgram(t, "compress.big")
	dir := t.TempDir()
	tr, err := CaptureToDir(p, maxInsts, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Chunks() < 2 {
		t.Fatalf("compress.big packs into %d chunk(s); the alloc guard must cross a chunk boundary", tr.Chunks())
	}
	r := NewReader(tr)
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
	r.Release()
}

// TestRecorderRefusesSpeculation pins the checkpoint-interaction choice
// for ISSUE 5: capture refuses loudly while a checkpoint is live, and
// resumes consistently once the machine is restored (or committed) back
// to exactly the state the recorder last saw.
func TestRecorderRefusesSpeculation(t *testing.T) {
	p := mustProgram(t, "micro.branchy")
	m := emu.New(p)
	r, err := NewRecorder(m, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// A live checkpoint must stop capture without poisoning the recorder.
	cp := m.Checkpoint()
	if _, err := r.Step(); !errors.Is(err, ErrSpeculating) {
		t.Fatalf("Step during speculation: err %v, want ErrSpeculating", err)
	}

	// Speculate down the wrong path behind the recorder's back, then roll
	// back: Restore returns the machine to the recorded point, so capture
	// resumes and the finished trace must still match lockstep execution.
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for !m.Halted() {
		if _, err := r.Step(); err != nil {
			t.Fatalf("resumed capture: %v", err)
		}
	}
	tr, err := r.Finish()
	if err != nil {
		t.Fatal(err)
	}
	ref := emu.New(p)
	rd := NewReader(tr)
	for {
		want, werr := ref.Step()
		got, gerr := rd.Step()
		if werr != nil || gerr != nil {
			if !errors.Is(gerr, werr) {
				t.Fatalf("err mismatch: %v vs %v", werr, gerr)
			}
			break
		}
		if got != want {
			t.Fatalf("post-restore trace diverges: %+v vs %+v", got, want)
		}
	}

	// Commit back at the same instruction count also resumes cleanly.
	m2 := emu.New(p)
	r2, err := NewRecorder(m2, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Step(); err != nil {
		t.Fatal(err)
	}
	cp2 := m2.Checkpoint()
	if err := m2.Commit(cp2); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Step(); err != nil {
		t.Fatalf("Step after commit at the recorded point: %v", err)
	}

	// But a machine that advanced and committed — its history can no
	// longer be recorded — must fail permanently, not silently skip.
	m3 := emu.New(p)
	r3, err := NewRecorder(m3, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m3.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := r3.Step(); err == nil {
		t.Fatal("Step on an externally advanced machine succeeded, want error")
	}
	if _, err := r3.Step(); err == nil {
		t.Fatal("recorder error must be sticky")
	}
}

// TestNewRecorderRejectsUsedMachine covers the constructor guards.
func TestNewRecorderRejectsUsedMachine(t *testing.T) {
	p := mustProgram(t, "micro.chain")
	m := emu.New(p)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewRecorder(m, p); err == nil {
		t.Fatal("NewRecorder accepted a machine with executed instructions")
	}
	m2 := emu.New(p)
	m2.Checkpoint()
	if _, err := NewRecorder(m2, p); !errors.Is(err, ErrSpeculating) {
		t.Fatalf("NewRecorder on speculating machine: err %v, want ErrSpeculating", err)
	}
}

// TestDiskRoundTrip checks Marshal/Unmarshal and the file layer,
// including the corrupt-file hardening the CLI relies on: bad bytes are
// rejected AND the file is removed so a recapture can fill the slot.
func TestDiskRoundTrip(t *testing.T) {
	p := mustProgram(t, "micro.stream")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := tr.WriteFile(dir); err != nil {
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

	// Marshal must be canonical: two captures serialize identically.
	tr2, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	a, b := tr.Marshal(), tr2.Marshal()
	if string(a) != string(b) {
		t.Fatal("Marshal is not canonical across captures")
	}

	path := DiskPath(dir, p)

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
	other, err := Capture(mustProgram(t, "micro.chain"), maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, other.Marshal(), 0o644); err != nil {
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

// TestReaderCorruptStream checks the reader's in-memory truncation guard
// (the disk checksum normally catches this first).
func TestReaderCorruptStream(t *testing.T) {
	p := mustProgram(t, "micro.branchy")
	tr, err := Capture(p, maxInsts)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the final chunk's bytes while keeping the step count: the
	// reader must run out of packed bytes before it runs out of records.
	last := tr.chunks[len(tr.chunks)-1]
	cut := uint64(last.packedLen) / 2
	chunks := append([]chunkMeta(nil), tr.chunks...)
	chunks[len(chunks)-1].packedLen = uint32(cut)
	store := tr.store.(*memStore)
	mem := append([][]byte(nil), store.chunks...)
	mem[len(mem)-1] = mem[len(mem)-1][:cut]
	trunc := &Trace{
		prog: tr.prog, entryPC: tr.entryPC, n: tr.n,
		packedLen: tr.packedLen - uint64(last.packedLen) + cut,
		chunkRecs: tr.chunkRecs, chunks: chunks,
		store: &memStore{chunks: mem},
	}
	r := NewReader(trunc)
	for {
		if _, err := r.Step(); err != nil {
			if errors.Is(err, emu.ErrHalted) {
				t.Fatal("truncated stream replayed to completion")
			}
			break
		}
	}
}
