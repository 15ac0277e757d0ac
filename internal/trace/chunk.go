package trace

// Chunked storage: the packed stream is cut into fixed-record-count
// chunks, each independently checksummed, so a trace lives on disk and
// is consumed one chunk at a time. A reader holds exactly one chunk
// buffer however long the trace is — the whole stream is never
// resident. Chunks are sealed in capture order, which makes the
// Recorder a pure append device and the one writer of the on-disk
// layout: header, chunk bytes, footer.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/errclass"
)

// chunkRecords is the number of dynamic records per chunk. It must be a
// multiple of boundaryInterval so every warm-start boundary falls on a
// known offset inside a known chunk. 2^18 records ≈ 256 KiB at the
// format's ~1 byte/record density (1 MiB worst case), small enough that
// K segment workers hold O(K) chunk buffers, large enough that refills
// are rare (one per quarter-million replayed instructions).
const chunkRecords = 1 << 18

// maxChunkBytes bounds a chunk's packed size: no record packs more than
// 4 bytes.
const maxChunkBytes = 4 * chunkRecords

// chunkMeta locates and authenticates one chunk. Chunk i covers records
// [i·chunkRecords, (i+1)·chunkRecords) ∩ [0, Steps()).
type chunkMeta struct {
	startPos  uint64 // byte offset of the chunk in the packed stream
	packedLen uint32
	sum       [32]byte // sha256 of the chunk's packed bytes
}

// ErrCorruptChunk marks a chunk whose bytes fail their checksum at read
// time (bit rot or a torn write). The engine treats it as "this trace is
// gone": drop, delete, recapture — a segment worker must never decode a
// torn chunk. It wraps errclass.ErrCorrupt, so the generic classifiers
// (runcache's memoization guard among them) recognize it without
// importing this package.
var ErrCorruptChunk = fmt.Errorf("trace: chunk checksum mismatch (corrupt or torn trace file): %w", errclass.ErrCorrupt)

// fileStore reads chunks from a trace file via ReadAt (safe for
// concurrent readers; no shared cursor) and verifies each chunk's
// checksum on every load — disk bytes can rot or be torn, and a reader
// must fail loudly before decoding them. It is the only chunk store:
// every trace, persisted or anonymous, is a v3 file. Segment workers
// load different chunks of one shared trace concurrently.
type fileStore struct {
	r    io.ReaderAt // the open file; closed by close if it is an io.Closer
	path string      // for error messages; may outlive renames
	size int64       // total file size (Footprint)

	closeOnce sync.Once
	closeErr  error
}

// fileHeaderLen is the fixed prefix before chunk data: magic + progHash.
const fileHeaderLen = 8 + 32

// load reads chunk i's packed bytes into dst, a caller-owned buffer with
// cap ≥ packedLen, and returns them once they pass their checksum.
func (s *fileStore) load(i int, m chunkMeta, dst []byte) ([]byte, error) {
	if uint64(len(dst)) < uint64(m.packedLen) {
		// Callers size dst from the trace's own chunk table; a short
		// buffer means the table and this call disagree.
		return nil, errCorrupt
	}
	dst = dst[:m.packedLen]
	if _, err := s.r.ReadAt(dst, fileHeaderLen+int64(m.startPos)); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("trace: %s: chunk %d truncated: %w", s.path, i, ErrCorruptChunk)
		}
		if errors.Is(err, os.ErrClosed) {
			// Invalidate closed the file under this reader: another reader
			// of the same trace found a corrupt chunk. Report that
			// corruption, so this run recovers the same way.
			return nil, fmt.Errorf("trace: %s: chunk %d: trace invalidated: %w", s.path, i, ErrCorruptChunk)
		}
		return nil, classify(fmt.Errorf("trace: %s: reading chunk %d: %w", s.path, i, err))
	}
	if sha256.Sum256(dst) != m.sum {
		return nil, fmt.Errorf("trace: %s: chunk %d: %w", s.path, i, ErrCorruptChunk)
	}
	return dst, nil
}

func (s *fileStore) close() error {
	s.closeOnce.Do(func() {
		if c, ok := s.r.(io.Closer); ok {
			s.closeErr = classify(c.Close())
		}
	})
	return s.closeErr
}

// chunkBufPool recycles reader chunk buffers across segment runs, so a
// sweep's K parallel workers settle on K buffers total instead of
// allocating one per (config, segment) pair.
var chunkBufPool sync.Pool

// grabChunkBuf returns a buffer with capacity ≥ n.
func grabChunkBuf(n int) *[]byte {
	if v := chunkBufPool.Get(); v != nil {
		b := v.(*[]byte)
		if cap(*b) >= n {
			return b
		}
	}
	b := make([]byte, n)
	return &b
}

func releaseChunkBuf(b *[]byte) {
	if b != nil {
		chunkBufPool.Put(b)
	}
}
