// Package emu implements a functional emulator for the ISA in package isa.
//
// The emulator serves two purposes. First, it validates the benchmark
// programs in package prog (their outputs are checked against independent
// Go reference implementations). Second, it generates the dynamic
// instruction stream — one Record per executed instruction, with resolved
// branch outcomes and memory addresses — that drives the trace-driven
// timing simulator in package pipeline, exactly as the paper's
// SimpleScalar-based methodology did.
package emu

import (
	"errors"
	"fmt"

	"repro/internal/isa"
)

// Record describes one dynamically executed instruction.
type Record struct {
	// PC is the instruction index in the program text.
	PC uint32
	// Inst is the executed instruction.
	Inst isa.Inst
	// NextPC is the instruction index executed next (the branch/jump
	// target when taken, PC+1 otherwise).
	NextPC uint32
	// Taken reports whether a control instruction redirected fetch.
	Taken bool
	// Addr is the effective byte address for loads and stores.
	Addr uint32
}

// pageBits sizes the sparse memory pages (64 KiB).
const pageBits = 16

// Machine is the architectural state of one running program.
type Machine struct {
	prog  *isa.Program
	pc    uint32
	regs  [isa.NumRegs]int32
	pages map[uint32]*[1 << pageBits]byte
	// Output collects values emitted by Out instructions.
	Output []int32
	// Executed counts retired instructions.
	Executed uint64
	halted   bool
}

// ErrHalted is returned by Step once the program has executed Halt.
var ErrHalted = errors.New("emu: machine halted")

// New loads a program into a fresh machine: data segment at isa.DataBase,
// stack pointer at isa.StackTop, PC at the "main" symbol if present (index
// 0 otherwise).
func New(p *isa.Program) *Machine {
	m := &Machine{prog: p, pages: make(map[uint32]*[1 << pageBits]byte)}
	for i, b := range p.Data {
		m.StoreByte(isa.DataBase+uint32(i), b)
	}
	m.regs[isa.SP] = int32(isa.StackTop)
	if start, ok := p.Symbols["main"]; ok {
		m.pc = start
	}
	return m
}

// Reg returns the value of an architectural register.
func (m *Machine) Reg(r isa.Reg) int32 { return m.regs[r] }

// SetReg sets an architectural register (writes to register 0 are ignored).
func (m *Machine) SetReg(r isa.Reg, v int32) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

// PC returns the current instruction index.
func (m *Machine) PC() uint32 { return m.pc }

// Program returns the loaded program.
func (m *Machine) Program() *isa.Program { return m.prog }

// Halted reports whether the program has executed Halt.
func (m *Machine) Halted() bool { return m.halted }

func (m *Machine) page(addr uint32) *[1 << pageBits]byte {
	p, ok := m.pages[addr>>pageBits]
	if !ok {
		p = new([1 << pageBits]byte)
		m.pages[addr>>pageBits] = p
	}
	return p
}

// LoadByte reads one byte of memory (unmapped memory reads as zero).
func (m *Machine) LoadByte(addr uint32) byte {
	if p, ok := m.pages[addr>>pageBits]; ok {
		return p[addr&(1<<pageBits-1)]
	}
	return 0
}

// StoreByte writes one byte of memory.
func (m *Machine) StoreByte(addr uint32, b byte) {
	m.page(addr)[addr&(1<<pageBits-1)] = b
}

// LoadWord reads a little-endian 32-bit word.
func (m *Machine) LoadWord(addr uint32) int32 {
	return int32(uint32(m.LoadByte(addr)) |
		uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 |
		uint32(m.LoadByte(addr+3))<<24)
}

// StoreWord writes a little-endian 32-bit word.
func (m *Machine) StoreWord(addr uint32, v int32) {
	u := uint32(v)
	m.StoreByte(addr, byte(u))
	m.StoreByte(addr+1, byte(u>>8))
	m.StoreByte(addr+2, byte(u>>16))
	m.StoreByte(addr+3, byte(u>>24))
}

// Step executes one instruction and returns its dynamic record. It returns
// ErrHalted once the program has stopped, and a descriptive error on a PC
// out of range or division by zero.
func (m *Machine) Step() (Record, error) {
	if m.halted {
		return Record{}, ErrHalted
	}
	if m.pc >= uint32(len(m.prog.Text)) {
		return Record{}, fmt.Errorf("emu: pc %d outside text segment (%d instructions)", m.pc, len(m.prog.Text))
	}
	in := m.prog.Text[m.pc]
	rec := Record{PC: m.pc, Inst: in, NextPC: m.pc + 1}
	rs, rt := m.regs[in.Rs], m.regs[in.Rt]

	switch in.Op {
	case isa.Add:
		m.SetReg(in.Rd, rs+rt)
	case isa.Sub:
		m.SetReg(in.Rd, rs-rt)
	case isa.And:
		m.SetReg(in.Rd, rs&rt)
	case isa.Or:
		m.SetReg(in.Rd, rs|rt)
	case isa.Xor:
		m.SetReg(in.Rd, rs^rt)
	case isa.Nor:
		m.SetReg(in.Rd, ^(rs | rt))
	case isa.Sllv:
		m.SetReg(in.Rd, rs<<(uint32(rt)&31))
	case isa.Srlv:
		m.SetReg(in.Rd, int32(uint32(rs)>>(uint32(rt)&31)))
	case isa.Srav:
		m.SetReg(in.Rd, rs>>(uint32(rt)&31))
	case isa.Slt:
		m.SetReg(in.Rd, boolToInt(rs < rt))
	case isa.Sltu:
		m.SetReg(in.Rd, boolToInt(uint32(rs) < uint32(rt)))
	case isa.Mul:
		m.SetReg(in.Rd, rs*rt)
	case isa.Div:
		if rt == 0 {
			return Record{}, fmt.Errorf("emu: division by zero at pc %d", m.pc)
		}
		m.SetReg(in.Rd, rs/rt)
	case isa.Rem:
		if rt == 0 {
			return Record{}, fmt.Errorf("emu: remainder by zero at pc %d", m.pc)
		}
		m.SetReg(in.Rd, rs%rt)
	case isa.Addi:
		m.SetReg(in.Rd, rs+in.Imm)
	case isa.Andi:
		m.SetReg(in.Rd, rs&in.Imm)
	case isa.Ori:
		m.SetReg(in.Rd, rs|in.Imm)
	case isa.Xori:
		m.SetReg(in.Rd, rs^in.Imm)
	case isa.Slli:
		m.SetReg(in.Rd, rs<<(uint32(in.Imm)&31))
	case isa.Srli:
		m.SetReg(in.Rd, int32(uint32(rs)>>(uint32(in.Imm)&31)))
	case isa.Srai:
		m.SetReg(in.Rd, rs>>(uint32(in.Imm)&31))
	case isa.Slti:
		m.SetReg(in.Rd, boolToInt(rs < in.Imm))
	case isa.Sltiu:
		m.SetReg(in.Rd, boolToInt(uint32(rs) < uint32(in.Imm)))
	case isa.Lui:
		m.SetReg(in.Rd, in.Imm<<16)
	case isa.Lw:
		rec.Addr = uint32(rs + in.Imm)
		m.SetReg(in.Rd, m.LoadWord(rec.Addr))
	case isa.Lb:
		rec.Addr = uint32(rs + in.Imm)
		m.SetReg(in.Rd, int32(int8(m.LoadByte(rec.Addr))))
	case isa.Lbu:
		rec.Addr = uint32(rs + in.Imm)
		m.SetReg(in.Rd, int32(m.LoadByte(rec.Addr)))
	case isa.Sw:
		rec.Addr = uint32(rs + in.Imm)
		m.StoreWord(rec.Addr, rt)
	case isa.Sb:
		rec.Addr = uint32(rs + in.Imm)
		m.StoreByte(rec.Addr, byte(uint32(rt)))
	case isa.Beq:
		m.branch(&rec, rs == rt, in.Imm)
	case isa.Bne:
		m.branch(&rec, rs != rt, in.Imm)
	case isa.Blt:
		m.branch(&rec, rs < rt, in.Imm)
	case isa.Bge:
		m.branch(&rec, rs >= rt, in.Imm)
	case isa.Bltz:
		m.branch(&rec, rs < 0, in.Imm)
	case isa.Bgez:
		m.branch(&rec, rs >= 0, in.Imm)
	case isa.Blez:
		m.branch(&rec, rs <= 0, in.Imm)
	case isa.Bgtz:
		m.branch(&rec, rs > 0, in.Imm)
	case isa.J:
		rec.Taken = true
		rec.NextPC = uint32(in.Imm)
	case isa.Jal:
		m.SetReg(isa.RA, int32(m.pc+1))
		rec.Taken = true
		rec.NextPC = uint32(in.Imm)
	case isa.Jr:
		rec.Taken = true
		rec.NextPC = uint32(rs)
	case isa.Jalr:
		m.SetReg(isa.RA, int32(m.pc+1))
		rec.Taken = true
		rec.NextPC = uint32(rs)
	case isa.Out:
		m.Output = append(m.Output, rs)
	case isa.Halt:
		m.halted = true
		rec.NextPC = m.pc
	default:
		return Record{}, fmt.Errorf("emu: invalid opcode %d at pc %d", in.Op, m.pc)
	}

	m.pc = rec.NextPC
	m.Executed++
	return rec, nil
}

func (m *Machine) branch(rec *Record, cond bool, target int32) {
	if cond {
		rec.Taken = true
		rec.NextPC = uint32(target)
	}
}

func boolToInt(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// Run executes the program to completion or until maxInsts instructions
// have retired, returning the collected Out values. It is the convenience
// entry point for functional verification.
func Run(p *isa.Program, maxInsts uint64) ([]int32, error) {
	m := New(p)
	for !m.Halted() {
		if m.Executed >= maxInsts {
			return m.Output, fmt.Errorf("emu: %s exceeded %d instructions", p.Name, maxInsts)
		}
		if _, err := m.Step(); err != nil {
			return m.Output, err
		}
	}
	return m.Output, nil
}
