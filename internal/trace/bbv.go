package trace

// Basic-block vectors (SimPoint-style phase fingerprints): during the
// one functional execution that captures a trace, every dynamic
// instruction is attributed to the basic block it executes in, and the
// per-block execution counts are accumulated over fixed-length
// intervals. Two intervals with similar vectors execute similar code —
// the classic observation that lets a sampler time one representative
// per program phase (see phase.go). Blocks
// are identified by their leader PC hashed into a fixed number of
// buckets, so a vector is a small dense array however large the program.

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// bbvDim is the number of hash buckets per vector. 32 buckets × 4 bytes
// per interval (2^15 instructions) is ~0.4% of the packed stream —
// cheap enough to collect always, discriminating enough for the paper's
// loop-structured workloads.
const bbvDim = 32

// bbvInterval is the profiling interval in dynamic instructions. It
// equals boundaryInterval so intervals align exactly with warm-start
// boundaries and therefore with segment cuts.
const bbvInterval = boundaryInterval

// BBV is a trace's per-interval basic-block-vector profile.
type BBV struct {
	// Dim is the bucket count of each vector (bbvDim for captures made
	// by this build; kept explicit so the on-disk format is
	// self-describing).
	Dim int
	// Interval is the profiling interval in dynamic instructions.
	Interval uint64
	// Counts holds the vectors back to back: interval i occupies
	// Counts[i*Dim : (i+1)*Dim]. The final interval may cover fewer
	// than Interval instructions (the trace's tail).
	Counts []uint32
}

// Intervals returns the number of profiled intervals.
func (b BBV) Intervals() int {
	if b.Dim == 0 {
		return 0
	}
	return len(b.Counts) / b.Dim
}

// bbvBucket hashes a basic-block leader PC into a vector bucket
// (Fibonacci hashing; top bits of the product are the best-mixed).
func bbvBucket(leader uint32) int {
	return int((leader * 0x9E3779B1) >> 27 & (bbvDim - 1))
}

// bbvBuilder accumulates one interval's vector during capture.
type bbvBuilder struct {
	cur     [bbvDim]uint32
	vecs    []uint32
	leader  uint32
	inBlock bool
}

// note attributes one dynamic instruction to its basic block. A block's
// leader is the first instruction executed after a control transfer;
// every instruction until the next branch or jump (taken or not — the
// transfer instruction ends its block either way) counts toward that
// leader's bucket, so a block contributes count×length exactly as the
// SimPoint formulation weighs it.
func (b *bbvBuilder) note(rec emu.Record) {
	if !b.inBlock {
		b.leader = rec.PC
		b.inBlock = true
	}
	b.cur[bbvBucket(b.leader)]++
	switch isa.ClassOf(rec.Inst.Op) {
	case isa.ClassBranch, isa.ClassJump:
		b.inBlock = false
	}
}

// seal closes the current interval's vector.
func (b *bbvBuilder) seal() {
	b.vecs = append(b.vecs, b.cur[:]...)
	b.cur = [bbvDim]uint32{}
}

// finish returns the completed profile.
func (b *bbvBuilder) finish() BBV {
	return BBV{Dim: bbvDim, Interval: bbvInterval, Counts: b.vecs}
}

// SegmentBBV returns seg's phase fingerprint: the L1-normalized sum of
// the basic-block vectors of the intervals the segment covers. Segment
// cuts fall on interval boundaries (both are boundaryInterval-aligned),
// so intervals nest cleanly; the trace's final partial interval belongs
// to the final segment. Every trace carries a profile covering all its
// steps: captures build one and the loader rejects a file without it.
func (t *Trace) SegmentBBV(seg Segment) []float64 {
	n := t.bbv.Intervals()
	lo := int(seg.Start.Step / t.bbv.Interval)
	hi := int((seg.End.Step + t.bbv.Interval - 1) / t.bbv.Interval)
	if hi > n {
		hi = n
	}
	out := make([]float64, t.bbv.Dim)
	var total float64
	for i := lo; i < hi; i++ {
		v := t.bbv.Counts[i*t.bbv.Dim : (i+1)*t.bbv.Dim]
		for d, c := range v {
			out[d] += float64(c)
			total += float64(c)
		}
	}
	if total > 0 {
		for d := range out {
			out[d] /= total
		}
	}
	return out
}
