// Package trace captures the dynamic execution of a program once and
// replays it arbitrarily many times. The functional emulator's Record
// stream — resolved branch outcomes, jump targets and memory addresses —
// is a pure function of (program, input); only *timing* differs between
// machine configurations. A sweep that times one workload on dozens of
// configurations therefore only needs to execute it once: capture the
// stream into a packed trace, then drive every timing simulation from a
// zero-allocation sequential Reader instead of lockstep emulation.
//
// The encoding exploits that almost everything in a Record is static.
// The instruction is the program text at the PC; the PC chain is implied
// by the previous record's NextPC; conditional-branch and direct-jump
// targets are immediates. Per dynamic instruction the trace stores only
// what the emulator actually resolved at run time:
//
//	conditional branch      1 byte  (taken flag)
//	indirect jump (jr/jalr) 4 bytes (target)
//	load/store              4 bytes (effective address)
//	everything else         0 bytes
//
// which averages about one byte per instruction on the paper's
// workloads. A trace is tied to its program by a content hash over the
// text and data segments, so a stale trace can never replay against a
// recompiled program.
//
// Every trace is a file in one on-disk layout (disk.go), written by one
// writer and read by one parser. The packed stream is chunked
// (chunk.go): capture seals and checksums one chunk at a time and
// streams it straight to the file — the canonical path under a trace
// directory (CaptureToDir) or an anonymous, already-unlinked temp file
// (Capture) — so peak capture memory is O(chunk), not O(trace). Readers
// load and verify one chunk at a time for the same bound on the replay
// side.
//
//ce:classify-errors
package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Trace is one captured execution: the chunked packed dynamic stream
// plus the final architectural results needed to verify a replayed run
// without re-executing (output values and state digest).
type Trace struct {
	prog    *isa.Program
	entryPC uint32
	n       uint64 // dynamic records in the packed stream

	packedLen uint64 // total packed bytes across chunks
	chunkRecs uint64 // records per full chunk (chunkRecords at capture)
	chunks    []chunkMeta
	maxChunk  int // largest chunk's packed size (reader buffer bound)
	store     *fileStore

	// bounds are periodic warm-start points (every boundaryInterval
	// records) captured during the one functional execution; see
	// segment.go.
	bounds []Boundary

	// bbv holds the per-interval basic-block vectors collected during
	// capture; see bbv.go.
	bbv BBV

	output    []int32
	stateHash [32]byte

	// path is the canonical on-disk location of a trace persisted under a
	// trace directory ("" for an anonymous capture).
	path string
}

// Program returns the program this trace was captured from.
func (t *Trace) Program() *isa.Program { return t.prog }

// Steps returns the number of dynamic instructions in the trace.
func (t *Trace) Steps() uint64 { return t.n }

// PackedBytes returns the size of the packed stream in bytes
// (observability: bytes per instruction is the format's figure of merit).
func (t *Trace) PackedBytes() int { return int(t.packedLen) }

// Chunks returns the number of chunks the packed stream is cut into.
func (t *Trace) Chunks() int { return len(t.chunks) }

// Footprint reports the size of the trace's file in bytes. Readers
// stream it one chunk at a time, so none of it is held resident.
func (t *Trace) Footprint() int64 { return t.store.size }

// Path returns the trace's canonical on-disk path, or "" for traces not
// persisted under a trace directory.
func (t *Trace) Path() string { return t.path }

// Close releases the trace's open file; an anonymous capture's file
// vanishes with it. Readers must not be used after Close.
func (t *Trace) Close() error { return t.store.close() }

// Invalidate closes the trace and removes its canonical file, if any —
// the engine's response to a chunk failing its checksum at replay time:
// the file can no longer be trusted, so the slot is cleared for
// recapture. Readers still open on t fail their next chunk load with
// ErrCorruptChunk.
func (t *Trace) Invalidate() error {
	cerr := t.Close()
	if t.path != "" {
		if err := os.Remove(t.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return classify(err)
		}
	}
	return cerr
}

// Output returns the Out values emitted by the captured execution.
func (t *Trace) Output() []int32 { return t.output }

// StateHash returns the final architectural state digest of the captured
// execution (emu.Machine.StateHash at halt).
func (t *Trace) StateHash() [32]byte { return t.stateHash }

// ProgHash digests the parts of a program that determine its execution:
// name, text segment and initial data image. A trace records this hash
// and refuses to attach to a program with a different one.
func ProgHash(p *isa.Program) [32]byte {
	h := sha256.New()
	var w [8]byte
	binary.LittleEndian.PutUint32(w[:4], uint32(len(p.Name)))
	h.Write(w[:4])
	h.Write([]byte(p.Name))
	binary.LittleEndian.PutUint32(w[:4], uint32(len(p.Text)))
	h.Write(w[:4])
	for _, in := range p.Text {
		w[0] = byte(in.Op)
		w[1] = byte(in.Rd)
		w[2] = byte(in.Rs)
		w[3] = byte(in.Rt)
		binary.LittleEndian.PutUint32(w[4:8], uint32(in.Imm))
		h.Write(w[:8])
	}
	binary.LittleEndian.PutUint32(w[:4], uint32(len(p.Data)))
	h.Write(w[:4])
	h.Write(p.Data)
	return [32]byte(h.Sum(nil))
}

// entryPC mirrors emu.New: execution starts at "main" if present, else 0.
func entryPC(p *isa.Program) uint32 {
	if start, ok := p.Symbols["main"]; ok {
		return start
	}
	return 0
}

// Recorder incrementally captures the execution of a machine it does not
// own. It refuses permanently — loudly, not by silent corruption — if the
// machine was stepped behind its back (the recorded stream no longer
// matches the machine).
//
// Packed bytes accumulate in one chunk buffer; every chunkRecords
// records the chunk is sealed (checksummed) and appended to the spill
// file, so the recorder's working set is one chunk regardless of trace
// length.
type Recorder struct {
	m    *emu.Machine
	prog *isa.Program

	chunk       []byte // current (unsealed) chunk's packed bytes
	chunkStart  uint64 // records sealed into previous chunks
	sealedBytes uint64 // packed bytes sealed into previous chunks
	chunks      []chunkMeta

	// Sealed chunks append to spill, opened by SpillTo or, failing that,
	// as an anonymous temp file when the first chunk seals. spillDest is
	// the canonical path the finished file is renamed to ("" = anonymous
	// temp backing, already unlinked).
	spill     *os.File
	spillName string // current file name ("" once anonymous/unlinked)
	spillDest string

	n      uint64
	bounds []Boundary
	bbv    bbvBuilder

	expect uint64 // machine.Executed after the last recorded step
	nextPC uint32
	err    error
}

// NewRecorder starts capturing m, which must be freshly created from p
// (nothing executed yet).
func NewRecorder(m *emu.Machine, p *isa.Program) (*Recorder, error) {
	if m.Executed != 0 {
		return nil, fmt.Errorf("trace: machine has already executed %d instructions; capture must start fresh", m.Executed)
	}
	return &Recorder{m: m, prog: p, nextPC: entryPC(p)}, nil
}

// SpillTo directs the recorder's file into dir before any chunk is
// sealed: sealed chunks append to a temp file there, and Finish renames
// it to the trace's canonical path. Without SpillTo the file is an
// anonymous temp file. Capture memory stays O(chunk) either way.
func (r *Recorder) SpillTo(dir string) error {
	if r.spill != nil {
		return fmt.Errorf("trace: recorder is already spilling to %s", r.spillName)
	}
	if err := r.startSpill(dir); err != nil {
		return err
	}
	r.spillDest = DiskPath(dir, r.prog)
	return nil
}

// startSpill opens the spill file (in dir, or anonymous when dir is "")
// and writes the stream header.
func (r *Recorder) startSpill(dir string) error {
	pattern := "trace-*.tmp"
	if dir == "" {
		pattern = "cetrace-spill-*.tmp"
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return r.spillFail(classify(err))
	}
	r.spill = f
	r.spillName = f.Name()
	if dir == "" {
		// Anonymous capture: unlink immediately so the backing file cannot
		// outlive the process, whatever happens later.
		_ = os.Remove(r.spillName)
		r.spillName = ""
	}
	ph := ProgHash(r.prog)
	if _, err := f.Write(diskMagic[:]); err != nil {
		return r.spillFail(classify(err))
	}
	if _, err := f.Write(ph[:]); err != nil {
		return r.spillFail(classify(err))
	}
	return nil
}

// spillFail abandons the spill file and poisons the recorder.
func (r *Recorder) spillFail(err error) error {
	if r.spill != nil {
		_ = r.spill.Close()
		if r.spillName != "" {
			_ = os.Remove(r.spillName)
		}
		r.spill = nil
	}
	if r.err == nil {
		r.err = err
	}
	return err
}

// Step executes one instruction on the underlying machine and appends it
// to the trace. See the Recorder type comment for the refusal contract.
func (r *Recorder) Step() (emu.Record, error) {
	if r.err != nil {
		return emu.Record{}, r.err
	}
	if r.m.Executed != r.expect {
		r.err = fmt.Errorf("trace: machine executed %d instructions but the recorder captured %d; the machine was stepped outside the recorder", r.m.Executed, r.expect)
		return emu.Record{}, r.err
	}
	rec, err := r.m.Step()
	if err != nil {
		if !errors.Is(err, emu.ErrHalted) {
			r.err = err
		}
		return rec, err
	}
	if rec.PC != r.nextPC {
		r.err = fmt.Errorf("trace: non-sequential record: executed pc %d, expected %d", rec.PC, r.nextPC)
		return rec, r.err
	}
	r.append(rec)
	r.expect = r.m.Executed
	r.nextPC = rec.NextPC
	return rec, nil
}

// append packs one record. The per-class layout here must mirror
// Reader.Step exactly; the differential tests in this package and in
// internal/verify pin the round trip against the emulator.
func (r *Recorder) append(rec emu.Record) {
	r.bbv.note(rec)
	switch isa.ClassOf(rec.Inst.Op) {
	case isa.ClassLoad, isa.ClassStore:
		r.chunk = binary.LittleEndian.AppendUint32(r.chunk, rec.Addr)
	case isa.ClassBranch:
		var b byte
		if rec.Taken {
			b = 1
		}
		r.chunk = append(r.chunk, b)
	case isa.ClassJump:
		if rec.Inst.Op == isa.Jr || rec.Inst.Op == isa.Jalr {
			r.chunk = binary.LittleEndian.AppendUint32(r.chunk, rec.NextPC)
		}
	}
	r.n++
	if r.n%boundaryInterval == 0 {
		// A boundary is the replay cursor after r.n records: rec.NextPC is
		// the next instruction a Reader positioned here would decode.
		r.bounds = append(r.bounds, Boundary{Step: r.n, Pos: r.sealedBytes + uint64(len(r.chunk)), PC: rec.NextPC})
		r.bbv.seal()
	}
	if r.n-r.chunkStart == chunkRecords {
		r.sealChunk()
	}
}

// sealChunk checksums the current chunk and appends it to the spill
// file, opening an anonymous one if SpillTo did not name a directory.
func (r *Recorder) sealChunk() {
	m := chunkMeta{
		startPos:  r.sealedBytes,
		packedLen: uint32(len(r.chunk)),
		sum:       sha256.Sum256(r.chunk),
	}
	r.chunks = append(r.chunks, m)
	r.sealedBytes += uint64(len(r.chunk))
	r.chunkStart = r.n
	if r.spill == nil && r.startSpill("") != nil {
		return
	}
	if _, err := r.spill.Write(r.chunk); err != nil {
		_ = r.spillFail(classify(err))
		return
	}
	r.chunk = r.chunk[:0]
}

// Finish seals the capture into an immutable Trace. The machine must
// have halted: a partial trace would replay as a program that ends
// mid-flight, which no consumer wants.
func (r *Recorder) Finish() (*Trace, error) {
	if r.err != nil {
		_ = r.spillFail(r.err)
		return nil, r.err
	}
	if !r.m.Halted() {
		err := fmt.Errorf("trace: capture finished before the program halted (%d instructions executed)", r.m.Executed)
		_ = r.spillFail(err)
		return nil, err
	}
	if r.n > r.chunkStart {
		r.sealChunk()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.n%boundaryInterval != 0 {
		r.bbv.seal()
	}
	out := make([]int32, len(r.m.Output))
	copy(out, r.m.Output)
	t := &Trace{
		prog:      r.prog,
		entryPC:   entryPC(r.prog),
		n:         r.n,
		packedLen: r.sealedBytes,
		chunkRecs: chunkRecords,
		chunks:    r.chunks,
		bounds:    r.bounds,
		bbv:       r.bbv.finish(),
		output:    out,
		stateHash: r.m.StateHash(),
	}
	for _, c := range t.chunks {
		if int(c.packedLen) > t.maxChunk {
			t.maxChunk = int(c.packedLen)
		}
	}
	return r.finishSpill(t)
}

// finishSpill completes the on-disk form — footer and trailer after the
// chunk data — renames the file to its canonical path when one was
// requested, and hands the still-open handle to the trace's store.
func (r *Recorder) finishSpill(t *Trace) (*Trace, error) {
	footer := appendFooter(nil, t)
	if _, err := r.spill.Write(appendTrailer(footer, footer)); err != nil {
		return nil, r.spillFail(classify(err))
	}
	path := r.spillName
	if r.spillDest != "" {
		if err := os.Rename(r.spillName, r.spillDest); err != nil {
			return nil, r.spillFail(classify(err))
		}
		path = r.spillDest
		t.path = path
	}
	size := int64(fileHeaderLen) + int64(t.packedLen) + int64(len(footer)) + trailerLen
	t.store = &fileStore{r: r.spill, path: spillDisplayPath(path, r.prog), size: size}
	return t, nil
}

// spillDisplayPath names an anonymous spill for error messages.
func spillDisplayPath(path string, p *isa.Program) string {
	if path != "" {
		return path
	}
	return "(spill:" + p.Name + ")"
}

// Capture executes p to completion on a fresh machine and returns its
// trace. maxInsts is a runaway guard (0 means no limit). The trace is
// backed by an anonymous temp file, unlinked as soon as it is created:
// sealed chunks stream to it, so capture memory stays O(chunk) on
// workloads of any length, and Close (or process exit) frees it.
func Capture(p *isa.Program, maxInsts uint64) (*Trace, error) {
	return capture(p, maxInsts, nil)
}

// CaptureToDir executes p to completion, streaming the packed stream
// directly into dir: sealed chunks append to a temp file that Finish
// renames to the canonical DiskPath, and the returned trace reads its
// chunks back from that file. Peak capture memory is O(chunk), and the
// trace is already persisted for later processes to ReadFile.
func CaptureToDir(p *isa.Program, maxInsts uint64, dir string) (*Trace, error) {
	return capture(p, maxInsts, func(r *Recorder) error { return r.SpillTo(dir) })
}

func capture(p *isa.Program, maxInsts uint64, setup func(*Recorder) error) (*Trace, error) {
	m := emu.New(p)
	r, err := NewRecorder(m, p)
	if err != nil {
		return nil, err
	}
	if setup != nil {
		if err := setup(r); err != nil {
			return nil, fmt.Errorf("trace: capturing %s: %w", p.Name, err)
		}
	}
	for !m.Halted() {
		if maxInsts > 0 && m.Executed >= maxInsts {
			err := fmt.Errorf("trace: %s exceeded %d instructions during capture", p.Name, maxInsts)
			_ = r.spillFail(err)
			return nil, err
		}
		if _, err := r.Step(); err != nil {
			_ = r.spillFail(err)
			return nil, fmt.Errorf("trace: capturing %s: %w", p.Name, err)
		}
	}
	return r.Finish()
}
