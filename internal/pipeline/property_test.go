package pipeline

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
)

// genProgram builds a random straight-line program (no control flow, so it
// always terminates) from a byte seed stream: a mix of ALU ops, loads,
// stores, multiplies and outs over rotating registers.
func genProgram(seed []byte) *isa.Program {
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.S0, isa.S1, isa.S2, isa.V0}
	var text []isa.Inst
	// Seed registers with immediates so loads/stores have sane addresses.
	for i, r := range regs {
		text = append(text, isa.Inst{Op: isa.Addi, Rd: r, Rs: isa.Zero, Imm: int32(0x40000 + i*64)})
	}
	for i, b := range seed {
		rd := regs[int(b)%len(regs)]
		rs := regs[int(b>>3)%len(regs)]
		rt := regs[int(b>>5)%len(regs)]
		switch b % 7 {
		case 0:
			text = append(text, isa.Inst{Op: isa.Add, Rd: rd, Rs: rs, Rt: rt})
		case 1:
			text = append(text, isa.Inst{Op: isa.Xor, Rd: rd, Rs: rs, Rt: rt})
		case 2:
			text = append(text, isa.Inst{Op: isa.Addi, Rd: rd, Rs: rs, Imm: int32(b)})
		case 3:
			text = append(text, isa.Inst{Op: isa.Mul, Rd: rd, Rs: rs, Rt: rt})
		case 4:
			// Keep addresses within a small region: mask via ANDI then add base.
			text = append(text,
				isa.Inst{Op: isa.Andi, Rd: isa.T9, Rs: rs, Imm: 0xFC},
				isa.Inst{Op: isa.Lw, Rd: rd, Rs: isa.T9, Imm: 0x40000})
		case 5:
			text = append(text,
				isa.Inst{Op: isa.Andi, Rd: isa.T9, Rs: rs, Imm: 0xFC},
				isa.Inst{Op: isa.Sw, Rt: rt, Rs: isa.T9, Imm: 0x40000})
		case 6:
			if i%16 == 0 {
				text = append(text, isa.Inst{Op: isa.Out, Rs: rs})
			} else {
				text = append(text, isa.Inst{Op: isa.Sub, Rd: rd, Rs: rs, Rt: rt})
			}
		}
	}
	text = append(text, isa.Inst{Op: isa.Out, Rs: isa.T0}, isa.Inst{Op: isa.Halt})
	return &isa.Program{Name: "random", Text: text, Symbols: map[string]uint32{}}
}

// propConfigs are the machine shapes every random program must agree on.
func propConfigs() []Config {
	return []Config{
		cfg("window", 1, 0, window64),
		cfg("fifo", 1, 0, fifos8x8),
		cfg("clustered", 2, 1, func(b core.Bounds) core.Scheduler {
			return core.NewFIFOBank(core.FIFOBankConfig{
				Name: "c", Clusters: 2, FIFOsPerCluster: 4, Depth: 8,
			}, b)
		}),
		cfg("exec", 2, 1, func(b core.Bounds) core.Scheduler {
			return core.NewExecSteeredWindow(64, 2, b)
		}),
	}
}

// TestPropertyAllConfigsCompleteAndAgree: for random programs, every
// configuration (a) terminates within a generous cycle bound (no deadlock
// or livelock), (b) commits exactly the functionally executed instruction
// count, and (c) produces the functional emulator's outputs.
func TestPropertyAllConfigsCompleteAndAgree(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) > 512 {
			seed = seed[:512]
		}
		p := genProgram(seed)
		ref := emu.New(p)
		for !ref.Halted() {
			if _, err := ref.Step(); err != nil {
				t.Logf("reference emulation failed: %v", err)
				return false
			}
		}
		for _, c := range propConfigs() {
			sim, err := New(c, p)
			if err != nil {
				t.Logf("%s: %v", c.Name, err)
				return false
			}
			st, err := sim.Run(int64(len(p.Text))*20 + 10_000)
			if err != nil {
				t.Logf("%s: %v", c.Name, err)
				return false
			}
			if st.Committed != ref.Executed {
				t.Logf("%s: committed %d, want %d", c.Name, st.Committed, ref.Executed)
				return false
			}
			got := sim.Machine().Output
			if len(got) != len(ref.Output) {
				t.Logf("%s: output length %d, want %d", c.Name, len(got), len(ref.Output))
				return false
			}
			for i := range got {
				if got[i] != ref.Output[i] {
					t.Logf("%s: output[%d] = %d, want %d", c.Name, i, got[i], ref.Output[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyFIFOWithinFactorOfWindow: the heads-only FIFO machine must
// stay within a bounded factor of the flexible window on arbitrary
// programs (it cannot deadlock or starve). It may occasionally *win*:
// both machines schedule greedily, and greedy selection is not optimal —
// restricting the window's choices can issue a mispredicted branch
// sooner and recover fetch earlier — so only the upper bound is a
// property.
func TestPropertyFIFOWithinFactorOfWindow(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) < 16 {
			return true
		}
		if len(seed) > 256 {
			seed = seed[:256]
		}
		p := genProgram(seed)
		win, err := New(cfg("w", 1, 0, window64), p)
		if err != nil {
			return false
		}
		ws, err := win.Run(1_000_000)
		if err != nil {
			return false
		}
		fifo, err := New(cfg("f", 1, 0, fifos8x8), p)
		if err != nil {
			return false
		}
		fs, err := fifo.Run(1_000_000)
		if err != nil {
			return false
		}
		return fs.Cycles <= ws.Cycles*3+50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRetireOrderIsProgramOrder: with timeline recording on, the
// commit stream is exactly program order and stage timestamps are sane for
// arbitrary programs.
func TestPropertyTimelineWellFormed(t *testing.T) {
	f := func(seed []byte) bool {
		if len(seed) > 128 {
			seed = seed[:128]
		}
		p := genProgram(seed)
		c := cfg("tl", 1, 0, fifos8x8)
		c.RecordTimeline = true
		sim, err := New(c, p)
		if err != nil {
			return false
		}
		st, err := sim.Run(1_000_000)
		if err != nil {
			return false
		}
		tl := sim.Timeline()
		if uint64(len(tl)) != st.Committed {
			return false
		}
		for i, e := range tl {
			if uint64(i) != e.Seq {
				return false
			}
			if !(e.Fetch <= e.Dispatch && e.Dispatch < e.Issue && e.Issue < e.Complete && e.Complete <= e.Commit) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
