package trace

import (
	"errors"
	"fmt"

	"repro/internal/emu"
	"repro/internal/errclass"
	"repro/internal/isa"
)

// errCorrupt is preallocated so the hot Step path never constructs an
// error value. A corrupt trace is a programming or storage fault, not a
// per-record condition, so one shared sentinel is enough. It wraps
// errclass.ErrCorrupt so replay-time truncation is classified like
// every other failed-validation artifact: delete, recapture, never
// memoize.
var errCorrupt = fmt.Errorf("trace: packed stream truncated (trace does not match its step count): %w", errclass.ErrCorrupt)

// errReleased guards use-after-release: a Reader whose chunk buffer was
// returned to the pool must not decode from it again.
var errReleased = errors.New("trace: reader used after Release")

// Reader replays a captured trace as a stream of emu.Records, mirroring
// exactly what emu.Machine.Step would have returned for the same
// program. It performs no architectural work — no register file, no
// memory image — which is the entire point: the timing simulator only
// consumes the Record stream, so replay provides it at a fraction of the
// cost of re-execution.
//
// A Reader is a cheap cursor over the shared immutable Trace; create one
// per simulation and share the Trace across any number of goroutines.
// The reader holds exactly one chunk at a time in one pooled buffer
// (refilled from the trace's file as the cursor crosses chunk ends), so
// K parallel segment workers keep O(K) chunks resident however large
// the trace is. Call Release when done with a reader that may not have
// replayed to its trace's end, so its buffer returns to the pool (a
// reader that halts releases itself).
type Reader struct {
	t     *Trace
	text  []isa.Inst
	chunk []byte // current chunk's packed bytes
	pos   int    // cursor within chunk
	ci    int    // current chunk index
	limit uint64 // step at which the current chunk's records end

	pc     uint32
	step   uint64
	first  uint64 // step at which the reader was opened
	halted bool
	err    error

	buf *[]byte // pooled backing for chunk loads (nil once released)
}

// NewReader returns a fresh cursor positioned at the start of t.
func NewReader(t *Trace) *Reader {
	r, err := NewReaderAt(t, t.startBoundary())
	if err != nil {
		// The start boundary is always valid; only a chunk-load failure
		// (corrupt file) can land here. Surface it on the first Step.
		r = &Reader{t: t, text: t.prog.Text, pc: t.entryPC, err: err}
	}
	return r
}

// Program returns the traced program.
func (r *Reader) Program() *isa.Program { return r.t.Program() }

// PC returns the index of the next instruction to replay.
func (r *Reader) PC() uint32 { return r.pc }

// Halted reports whether the trace has been fully replayed.
func (r *Reader) Halted() bool { return r.halted }

// Decoded returns how many records the reader has decoded since it was
// opened.
func (r *Reader) Decoded() uint64 { return r.step - r.first }

// Output returns the Out values of the captured execution. Unlike
// emu.Machine's incrementally grown Output, the full slice is available
// immediately; consumers read it only after the simulated program
// retires its Halt, at which point the two views coincide.
func (r *Reader) Output() []int32 { return r.t.Output() }

// StateHash returns the final architectural digest of the captured
// execution (valid at any time; meaningful once replay has halted).
func (r *Reader) StateHash() [32]byte { return r.t.StateHash() }

// Release returns the reader's chunk buffer to the pool. It is safe to
// call at any time and more than once; after Release the reader refuses
// further Steps unless it had already halted.
func (r *Reader) Release() {
	if r.buf != nil {
		releaseChunkBuf(r.buf)
		r.buf = nil
		r.chunk = nil
		if r.err == nil && !r.halted {
			r.err = errReleased
		}
	}
}

// load positions the reader inside chunk ci at global stream offset
// globalPos, reading and verifying the chunk's bytes into the reader's
// pooled buffer.
func (r *Reader) load(ci int, globalPos uint64) error {
	t := r.t
	m := t.chunks[ci]
	if globalPos < m.startPos || globalPos-m.startPos > uint64(m.packedLen) {
		return errCorrupt
	}
	if r.buf == nil {
		r.buf = grabChunkBuf(t.maxChunk)
	}
	data, err := t.store.load(ci, m, (*r.buf)[:cap(*r.buf)])
	if err != nil {
		return err
	}
	r.chunk = data
	r.pos = int(globalPos - m.startPos)
	r.ci = ci
	r.limit = uint64(ci+1) * t.chunkRecs
	if r.limit > t.n {
		r.limit = t.n
	}
	return nil
}

// advance moves to the next chunk when the cursor crosses the current
// chunk's last record. Kept out of the Step body; it performs
// no allocation in steady state (the pooled buffer is reused), which
// TestReaderStepAllocFree pins across a chunk crossing.
func (r *Reader) advance() error {
	ci := r.ci + 1
	if ci >= len(r.t.chunks) {
		r.err = errCorrupt
		return errCorrupt
	}
	if err := r.load(ci, r.t.chunks[ci].startPos); err != nil {
		r.err = err
		return err
	}
	return nil
}

// finishHalt marks the trace fully replayed and retires the reader's
// pooled buffer — after the halt record nothing will be decoded again.
func (r *Reader) finishHalt() {
	r.halted = true
	if r.buf != nil {
		releaseChunkBuf(r.buf)
		r.buf = nil
		r.chunk = nil
	}
}

// Step reconstructs the next dynamic record. The per-class decoding must
// mirror Recorder.append, and the Record fields must match what
// emu.Machine.Step produces for the same instruction — both are pinned
// by differential tests. Returns emu.ErrHalted after the final record,
// exactly like the machine it stands in for.
func (r *Reader) Step() (emu.Record, error) {
	var rec emu.Record
	if err := r.Next(&rec); err != nil {
		return emu.Record{}, err
	}
	return rec, nil
}

// Next is Step writing the record into *rec. The pipeline's fetch
// decodes straight into the uop this way: copying a Record returned by
// value right after its fields were stored one by one reloads them as
// wider words, a store-forwarding stall per instruction. Next sets
// every field of *rec on success; on error *rec is unspecified.
func (r *Reader) Next(rec *emu.Record) error {
	if r.halted {
		return emu.ErrHalted
	}
	if r.err != nil {
		return r.err
	}
	if r.step >= r.t.n || r.pc >= uint32(len(r.text)) {
		// A sealed trace ends in Halt, so running out of records (or
		// walking outside the text) means the stream is corrupt.
		return errCorrupt
	}
	if r.step == r.limit {
		if err := r.advance(); err != nil {
			return err
		}
	}
	in := r.text[r.pc]
	next, taken, addr := r.pc+1, false, uint32(0)
	switch isa.ClassOf(in.Op) {
	case isa.ClassLoad, isa.ClassStore:
		if r.pos+4 > len(r.chunk) {
			return errCorrupt
		}
		p := r.chunk[r.pos:]
		addr = uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
		r.pos += 4
	case isa.ClassBranch:
		if r.pos >= len(r.chunk) {
			return errCorrupt
		}
		if r.chunk[r.pos] != 0 {
			taken = true
			next = uint32(in.Imm)
		}
		r.pos++
	case isa.ClassJump:
		taken = true
		if in.Op == isa.Jr || in.Op == isa.Jalr {
			if r.pos+4 > len(r.chunk) {
				return errCorrupt
			}
			p := r.chunk[r.pos:]
			next = uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
			r.pos += 4
		} else {
			next = uint32(in.Imm)
		}
	case isa.ClassSystem:
		if in.Op == isa.Halt {
			next = r.pc
			r.finishHalt()
		}
	}
	rec.PC, rec.Inst, rec.NextPC, rec.Taken, rec.Addr = r.pc, in, next, taken, addr
	r.pc = next
	r.step++
	return nil
}
