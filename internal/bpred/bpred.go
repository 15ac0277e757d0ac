// Package bpred implements the branch direction predictors used by the
// timing simulator. The paper's baseline (Table 3) is McFarling's gshare
// with 4K 2-bit counters and 12 bits of global history; bimodal and
// static always-taken predictors are provided for ablation studies.
package bpred

import "fmt"

// Predictor predicts conditional branch directions. Unconditional control
// instructions are predicted perfectly by the pipeline (Table 3) and never
// reach a Predictor.
type Predictor interface {
	// Predict returns the predicted direction for the branch at pc
	// (an instruction index).
	Predict(pc uint32) bool
	// Update trains the predictor with the resolved direction.
	Update(pc uint32, taken bool)
	// Name identifies the predictor in reports.
	Name() string
}

// Gshare is McFarling's gshare predictor: a table of 2-bit saturating
// counters indexed by the branch PC XORed with the global history.
type Gshare struct {
	counters []uint8
	history  uint32
	histBits uint
	mask     uint32
}

// NewGshare returns a gshare predictor with 2^tableBits counters and
// histBits bits of global history. The paper's configuration is
// NewGshare(12, 12): 4K counters, 12-bit history.
func NewGshare(tableBits, histBits uint) *Gshare {
	g := &Gshare{
		counters: make([]uint8, 1<<tableBits),
		histBits: histBits,
		mask:     1<<tableBits - 1,
	}
	// Counters initialized to weakly taken, the usual convention.
	for i := range g.counters {
		g.counters[i] = 2
	}
	return g
}

func (g *Gshare) index(pc uint32) uint32 {
	return (pc ^ (g.history & (1<<g.histBits - 1))) & g.mask
}

// Predict implements Predictor.
func (g *Gshare) Predict(pc uint32) bool { return g.counters[g.index(pc)] >= 2 }

// Update implements Predictor.
func (g *Gshare) Update(pc uint32, taken bool) {
	i := g.index(pc)
	if taken {
		if g.counters[i] < 3 {
			g.counters[i]++
		}
	} else if g.counters[i] > 0 {
		g.counters[i]--
	}
	g.history = g.history<<1 | b2u(taken)
}

// Name implements Predictor.
func (g *Gshare) Name() string {
	return fmt.Sprintf("gshare-%dx2bit-h%d", len(g.counters), g.histBits)
}

// Bimodal is a per-PC table of 2-bit saturating counters.
type Bimodal struct {
	counters []uint8
	mask     uint32
}

// NewBimodal returns a bimodal predictor with 2^tableBits counters.
func NewBimodal(tableBits uint) *Bimodal {
	b := &Bimodal{counters: make([]uint8, 1<<tableBits), mask: 1<<tableBits - 1}
	for i := range b.counters {
		b.counters[i] = 2
	}
	return b
}

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint32) bool { return b.counters[pc&b.mask] >= 2 }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint32, taken bool) {
	i := pc & b.mask
	if taken {
		if b.counters[i] < 3 {
			b.counters[i]++
		}
	} else if b.counters[i] > 0 {
		b.counters[i]--
	}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal-%dx2bit", len(b.counters)) }

// Static always predicts the same direction.
type Static struct{ Taken bool }

// Predict implements Predictor.
func (s Static) Predict(uint32) bool { return s.Taken }

// Update implements Predictor.
func (Static) Update(uint32, bool) {}

// Name implements Predictor.
func (s Static) Name() string {
	if s.Taken {
		return "always-taken"
	}
	return "always-not-taken"
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
