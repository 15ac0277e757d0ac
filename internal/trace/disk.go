package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/errclass"
	"repro/internal/isa"
)

// classify assigns an errclass category to an error leaving the trace
// package's disk paths: already-classified errors (and nil) pass
// through untouched; anything else came from an environment call on
// these paths — an os or io failure — and is marked Transient. Corrupt
// classifications are never applied here blindly: structural validation
// failures wrap errclass.ErrCorrupt at the site that detects them,
// where the judgement "this artifact is bad, not the environment" is
// actually made.
//
//ce:classifier
func classify(err error) error {
	if err == nil || errclass.IsTransient(err) || errclass.IsCorrupt(err) {
		return err
	}
	return errclass.Transient(err)
}

// On-disk layout, version 3 (all integers little-endian):
//
//	magic     "CETRACE\x03"           8 bytes
//	progHash  ProgHash(prog)         32 bytes
//	chunks    the packed stream, chunk after chunk (no framing)
//	footer    see below
//	footerLen uint64                  8 bytes
//	footerSum sha256 of the footer   32 bytes
//
// footer:
//
//	entryPC   uint32
//	steps     uint64
//	chunkRecs uint64                  records per full chunk
//	nChunks   uint32
//	chunks    nChunks × {packedLen uint32, sum [32]byte}
//	nBounds   uint32
//	bounds    nBounds × {step uint64, pos uint64, pc uint32}
//	bbvDim    uint32
//	bbvIval   uint64
//	nBBV      uint32                  total uint32 counts (intervals × dim)
//	bbv       nBBV × uint32
//	nOutput   uint32
//	output    nOutput × int32
//	stateHash [32]byte
//
// The layout is append-only in capture order — header, then chunk bytes
// as they seal, then everything known only at halt — so a capture
// streams straight to disk with O(chunk) memory. The Recorder is the
// layout's one writer and readFrom its one parser. Each chunk carries its
// own checksum, verified when the chunk is *loaded*, so a reader can
// consume a multi-gigabyte trace one chunk at a time without a
// whole-file pass; the footer carries its own trailing checksum,
// verified at open, covering all metadata. Truncation is caught
// structurally: header + chunk bytes + footer + trailer must tile the
// file exactly.
//
// Version 2 stored the packed stream as one unchunked blob with a
// whole-file checksum and no basic-block vectors; version 1 lacked the
// boundary table. Both old magics are recognized and rejected with
// ErrStaleFormat — the chunk table and BBV profile are properties of
// the capture, so an old file cannot be upgraded without re-executing
// the workload anyway. The caller deletes the file and recaptures.
//
// The progHash pins the trace to one exact program image. Readers treat
// any mismatch as "no trace": the caller deletes the file and
// recaptures, mirroring runcache.loadDisk's corrupt-entry hardening.

var diskMagic = [8]byte{'C', 'E', 'T', 'R', 'A', 'C', 'E', 3}

// ErrStaleFormat marks a structurally recognizable trace file of an
// older format version, which must be deleted and recaptured. It wraps
// errclass.ErrCorrupt: like any failed-validation artifact, a stale
// file is deletable and rebuildable, never memoizable.
var ErrStaleFormat = fmt.Errorf("trace: stale trace format: %w", errclass.ErrCorrupt)

const boundaryBytes = 8 + 8 + 4

const chunkMetaBytes = 4 + 32

// trailerLen is the fixed suffix: footerLen + footerSum.
const trailerLen = 8 + 32

// DiskPath returns the canonical file name for a program's trace under
// dir: content-addressed by program hash, so a recompiled program gets a
// fresh slot instead of a mismatch error.
func DiskPath(dir string, p *isa.Program) string { return diskPath(dir, ProgHash(p)) }

func diskPath(dir string, ph [32]byte) string {
	return filepath.Join(dir, hex.EncodeToString(ph[:])[:32]+".cetrace")
}

// appendFooter serializes the trace's metadata footer.
func appendFooter(buf []byte, t *Trace) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, t.entryPC)
	buf = binary.LittleEndian.AppendUint64(buf, t.n)
	buf = binary.LittleEndian.AppendUint64(buf, t.chunkRecs)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.chunks)))
	for _, c := range t.chunks {
		buf = binary.LittleEndian.AppendUint32(buf, c.packedLen)
		buf = append(buf, c.sum[:]...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.bounds)))
	for _, b := range t.bounds {
		buf = binary.LittleEndian.AppendUint64(buf, b.Step)
		buf = binary.LittleEndian.AppendUint64(buf, b.Pos)
		buf = binary.LittleEndian.AppendUint32(buf, b.PC)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.bbv.Dim))
	buf = binary.LittleEndian.AppendUint64(buf, t.bbv.Interval)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.bbv.Counts)))
	for _, c := range t.bbv.Counts {
		buf = binary.LittleEndian.AppendUint32(buf, c)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.output)))
	for _, v := range t.output {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	buf = append(buf, t.stateHash[:]...)
	return buf
}

// appendTrailer appends the fixed suffix that authenticates footer.
func appendTrailer(buf, footer []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(footer)))
	sum := sha256.Sum256(footer)
	return append(buf, sum[:]...)
}

// cursor is a bounds-checked little-endian reader over the footer.
type cursor struct {
	b   []byte
	bad bool
}

func (c *cursor) take(n int) []byte {
	if c.bad || len(c.b) < n {
		c.bad = true
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u32() uint32 {
	b := c.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// parseFooter rebuilds a trace's metadata (everything but the chunk
// store) from a verified footer, cross-checking the structural
// invariants the chunked reader depends on.
func parseFooter(footer []byte, p *isa.Program) (*Trace, error) {
	c := &cursor{b: footer}
	t := &Trace{prog: p}
	t.entryPC = c.u32()
	t.n = c.u64()
	t.chunkRecs = c.u64()
	nChunks := c.u32()
	corrupt := func(what string) (*Trace, error) {
		return nil, fmt.Errorf("trace: footer: %s: %w", what, errclass.ErrCorrupt)
	}
	if c.bad {
		return corrupt("truncated")
	}
	if t.chunkRecs == 0 || t.chunkRecs%boundaryInterval != 0 {
		return corrupt("invalid chunk record count")
	}
	if want := (t.n + t.chunkRecs - 1) / t.chunkRecs; uint64(nChunks) != want {
		return corrupt("chunk count does not match step count")
	}
	if uint64(len(c.b)) < uint64(nChunks)*chunkMetaBytes {
		return corrupt("chunk table overruns the footer")
	}
	t.chunks = make([]chunkMeta, nChunks)
	for i := range t.chunks {
		t.chunks[i].startPos = t.packedLen
		t.chunks[i].packedLen = c.u32()
		copy(t.chunks[i].sum[:], c.take(32))
		t.packedLen += uint64(t.chunks[i].packedLen)
		if int(t.chunks[i].packedLen) > t.maxChunk {
			t.maxChunk = int(t.chunks[i].packedLen)
		}
	}
	nBounds := c.u32()
	if c.bad || uint64(len(c.b)) < uint64(nBounds)*boundaryBytes {
		return corrupt("boundary table overruns the footer")
	}
	t.bounds = make([]Boundary, nBounds)
	for i := range t.bounds {
		b := Boundary{Step: c.u64(), Pos: c.u64(), PC: c.u32()}
		if b.Step > t.n || b.Pos > t.packedLen || (b.Step < t.n && b.PC >= uint32(len(p.Text))) {
			return corrupt("boundary outside the trace")
		}
		t.bounds[i] = b
	}
	t.bbv.Dim = int(c.u32())
	t.bbv.Interval = c.u64()
	nBBV := c.u32()
	if c.bad || uint64(len(c.b)) < uint64(nBBV)*4 {
		return corrupt("bbv table overruns the footer")
	}
	// Every capture profiles the whole run, so a missing or partial
	// profile is damage.
	if t.bbv.Dim != bbvDim {
		return corrupt("bbv vector dimension differs from the capture's")
	}
	if t.bbv.Interval != bbvInterval {
		return corrupt("bbv interval differs from the capture's")
	}
	intervals := t.n / bbvInterval
	if t.n%bbvInterval != 0 {
		intervals++
	}
	if nBBV%bbvDim != 0 || uint64(nBBV/bbvDim) != intervals {
		return corrupt("bbv profile does not cover the trace's steps")
	}
	t.bbv.Counts = make([]uint32, nBBV)
	for i := range t.bbv.Counts {
		t.bbv.Counts[i] = c.u32()
	}
	nOut := c.u32()
	if c.bad || uint64(len(c.b)) < uint64(nOut)*4 {
		return corrupt("output section overruns the footer")
	}
	t.output = make([]int32, nOut)
	for i := range t.output {
		t.output[i] = int32(c.u32())
	}
	copy(t.stateHash[:], c.take(32))
	if c.bad {
		return corrupt("truncated")
	}
	if len(c.b) != 0 {
		return corrupt("trailing bytes")
	}
	if t.entryPC != entryPC(p) {
		return nil, fmt.Errorf("trace: entry pc %d does not match the program's %d: %w", t.entryPC, entryPC(p), errclass.ErrCorrupt)
	}
	return t, nil
}

// checkMagic validates the 8-byte magic, distinguishing stale format
// versions (recognizable, recapture needed) from garbage.
func checkMagic(magic []byte) error {
	if [8]byte(magic) == diskMagic {
		return nil
	}
	if bytes.Equal(magic[:7], diskMagic[:7]) && magic[7] < diskMagic[7] {
		return fmt.Errorf("%w: format v%d < v3; recapturing", ErrStaleFormat, magic[7])
	}
	return fmt.Errorf("trace: bad magic (not a trace file, or an incompatible format version): %w", errclass.ErrCorrupt)
}

// EnsureDir creates dir (and any parents) for trace storage.
func EnsureDir(dir string) error { return classify(os.MkdirAll(dir, 0o755)) }

// ReadFile opens p's trace from dir without reading the packed stream:
// only the header and footer are loaded and verified, and the returned
// trace streams chunks from the (kept-open) file on demand, each
// verified against its checksum as it loads. A missing file returns
// os.ErrNotExist (wrapped); a corrupt, truncated, stale-format or
// mismatched file is deleted so the slot can be recaptured, and
// reported as an error (errors.Is(err, ErrStaleFormat) distinguishes
// old-version files).
func ReadFile(dir string, p *isa.Program) (*Trace, error) {
	path := diskPath(dir, ProgHash(p))
	f, err := os.Open(path)
	if err != nil {
		// classify wraps with %w, so errors.Is(err, os.ErrNotExist) still
		// identifies the missing-file case callers dispatch on.
		return nil, classify(err)
	}
	fi, serr := f.Stat()
	if serr != nil {
		_ = f.Close()
		return nil, classify(serr)
	}
	// readFrom classifies every error it returns; keeping its result out
	// of err also keeps the raw os.Open error from aliasing into it.
	t, rerr := readFrom(f, fi.Size(), path, p)
	if rerr != nil {
		_ = f.Close()
		_ = os.Remove(path)
		return nil, rerr
	}
	t.path = path
	return t, nil
}

// readFrom is the one parser of the v3 layout: it validates the header
// and footer of the size-byte trace file r and returns a trace that
// streams its chunks from r, each verified against its checksum as it
// loads. The trace owns r: Close closes it if it is an io.Closer. path
// names the file in error messages.
func readFrom(r io.ReaderAt, size int64, path string, p *isa.Program) (*Trace, error) {
	if size < fileHeaderLen+trailerLen {
		return nil, fmt.Errorf("trace: %s: file too short (%d bytes): %w", path, size, errclass.ErrCorrupt)
	}
	var header [fileHeaderLen]byte
	if _, err := r.ReadAt(header[:], 0); err != nil {
		return nil, classify(err)
	}
	if err := checkMagic(header[:8]); err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	if [32]byte(header[8:]) != ProgHash(p) {
		return nil, fmt.Errorf("trace: %s: trace was captured from a different build of %s: %w", path, p.Name, errclass.ErrCorrupt)
	}
	var trailer [trailerLen]byte
	if _, err := r.ReadAt(trailer[:], size-trailerLen); err != nil {
		return nil, classify(err)
	}
	footerLen := binary.LittleEndian.Uint64(trailer[:8])
	if footerLen > uint64(size-fileHeaderLen-trailerLen) {
		return nil, fmt.Errorf("trace: %s: footer overruns the file: %w", path, errclass.ErrCorrupt)
	}
	footer := make([]byte, footerLen)
	if _, err := r.ReadAt(footer, size-trailerLen-int64(footerLen)); err != nil {
		return nil, classify(err)
	}
	if sha256.Sum256(footer) != [32]byte(trailer[8:]) {
		return nil, fmt.Errorf("trace: %s: footer checksum mismatch (truncated or corrupt file): %w", path, errclass.ErrCorrupt)
	}
	t, perr := parseFooter(footer, p)
	if perr != nil {
		return nil, fmt.Errorf("%s: %w", path, perr)
	}
	if got := uint64(size) - fileHeaderLen - trailerLen - footerLen; got != t.packedLen {
		return nil, fmt.Errorf("trace: %s: packed stream is %d bytes, footer says %d: %w", path, got, t.packedLen, errclass.ErrCorrupt)
	}
	t.store = &fileStore{r: r, path: path, size: size}
	return t, nil
}
