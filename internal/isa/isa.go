// Package isa defines the 32-bit RISC instruction set used by the
// simulator: a load/store architecture in the style of MIPS (the ISA the
// paper's SimpleScalar-based evaluation used), with 32 integer registers
// and a small operation repertoire sufficient for the SPEC95-like
// benchmark kernels in package prog.
//
// Instructions are represented structurally rather than as encoded words:
// the timing models in this repository depend on dataflow (which registers
// are read and written, whether memory is touched, whether control
// transfers), not on binary encodings.
package isa

import "fmt"

// NumRegs is the number of architectural integer registers.
const NumRegs = 32

// Reg is an architectural register number, 0–31. Register 0 is hardwired
// to zero, as in MIPS.
type Reg uint8

// Conventional MIPS register names.
const (
	Zero Reg = iota
	AT
	V0
	V1
	A0
	A1
	A2
	A3
	T0
	T1
	T2
	T3
	T4
	T5
	T6
	T7
	S0
	S1
	S2
	S3
	S4
	S5
	S6
	S7
	T8
	T9
	K0
	K1
	GP
	SP
	FP
	RA
)

var regNames = [NumRegs]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// String returns the conventional name, e.g. "$t0".
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return "$" + regNames[r]
	}
	return fmt.Sprintf("$r%d", uint8(r))
}

// RegByName resolves a register name (without the leading '$'); both
// conventional names ("t0") and numeric names ("8") are accepted.
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	var num int
	if _, err := fmt.Sscanf(name, "%d", &num); err == nil && num >= 0 && num < NumRegs {
		return Reg(num), true
	}
	return 0, false
}

// Op is an operation code.
type Op uint8

// Operations. Three-register ALU ops read Rs and Rt and write Rd;
// immediate ALU ops read Rs and write Rd. Loads read Rs (base) and write
// Rd; stores read Rs (base) and Rt (data). Branches read Rs (and Rt for
// the two-register comparisons) and carry an instruction-index target in
// Imm. Jal/Jalr write RA.
const (
	Invalid Op = iota

	// ALU, register forms.
	Add
	Sub
	And
	Or
	Xor
	Nor
	Sllv
	Srlv
	Srav
	Slt
	Sltu
	Mul
	Div
	Rem

	// ALU, immediate forms.
	Addi
	Andi
	Ori
	Xori
	Slli
	Srli
	Srai
	Slti
	Sltiu
	Lui

	// Memory.
	Lw
	Lb
	Lbu
	Sw
	Sb

	// Conditional branches (target = instruction index in Imm).
	Beq
	Bne
	Blt
	Bge
	Bltz
	Bgez
	Blez
	Bgtz

	// Unconditional control.
	J
	Jal
	Jr
	Jalr

	// Environment.
	Out  // append the value of Rs to the program's output
	Halt // stop execution

	numOps
)

var opNames = map[Op]string{
	Add: "add", Sub: "sub", And: "and", Or: "or", Xor: "xor", Nor: "nor",
	Sllv: "sllv", Srlv: "srlv", Srav: "srav", Slt: "slt", Sltu: "sltu",
	Mul: "mul", Div: "div", Rem: "rem",
	Addi: "addi", Andi: "andi", Ori: "ori", Xori: "xori",
	Slli: "slli", Srli: "srli", Srai: "srai", Slti: "slti", Sltiu: "sltiu",
	Lui: "lui",
	Lw:  "lw", Lb: "lb", Lbu: "lbu", Sw: "sw", Sb: "sb",
	Beq: "beq", Bne: "bne", Blt: "blt", Bge: "bge",
	Bltz: "bltz", Bgez: "bgez", Blez: "blez", Bgtz: "bgtz",
	J: "j", Jal: "jal", Jr: "jr", Jalr: "jalr",
	Out: "out", Halt: "halt",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// opsByName inverts opNames once so mnemonic lookup is a deterministic
// O(1) map read rather than a scan in map iteration order.
var opsByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for o, n := range opNames {
		m[n] = o
	}
	return m
}()

// OpByName resolves a mnemonic to its operation.
func OpByName(name string) (Op, bool) {
	o, ok := opsByName[name]
	return o, ok
}

// Class groups operations by the functional-unit/pipeline behaviour the
// timing simulator cares about.
type Class uint8

const (
	ClassALU Class = iota
	ClassMul
	ClassDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional
	ClassJump   // unconditional
	ClassSystem // Out, Halt
)

var classNames = [...]string{"alu", "mul", "div", "load", "store", "branch", "jump", "system"}

// String returns a short class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf returns the operation's class. It is a table load: the
// simulator classifies every fetched and decoded instruction, and a
// switch over the irregular operation stream mispredicts.
func ClassOf(o Op) Class { return opClasses[o] }

// opClasses tabulates classOf for every Op value.
var opClasses = func() (t [256]Class) {
	for o := range t {
		t[o] = classOf(Op(o))
	}
	return t
}()

// classOf is the single definition of every operation's class.
func classOf(o Op) Class {
	switch o {
	case Mul:
		return ClassMul
	case Div, Rem:
		return ClassDiv
	case Lw, Lb, Lbu:
		return ClassLoad
	case Sw, Sb:
		return ClassStore
	case Beq, Bne, Blt, Bge, Bltz, Bgez, Blez, Bgtz:
		return ClassBranch
	case J, Jal, Jr, Jalr:
		return ClassJump
	case Out, Halt:
		return ClassSystem
	default:
		return ClassALU
	}
}

// Inst is one decoded instruction.
type Inst struct {
	Op Op
	Rd Reg // destination
	Rs Reg // first source
	Rt Reg // second source
	// Imm is the immediate operand: an arithmetic constant, a load/store
	// byte offset, or a branch/jump target expressed as an instruction
	// index into the program's text segment.
	Imm int32
}

// operands is an operation's register-operand shape: which of Rs and Rt
// it reads, and whether it writes Rd or the return-address register.
type operands uint8

const (
	readsRs operands = 1 << iota
	readsRt
	writesRd
	writesRA
)

// operandsOf is the single definition of every operation's register
// operands; the decode paths read it through the opOperands table.
func operandsOf(o Op) operands {
	switch o {
	case Add, Sub, And, Or, Xor, Nor, Sllv, Srlv, Srav, Slt, Sltu, Mul, Div, Rem:
		return readsRs | readsRt | writesRd
	case Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Sltiu, Lw, Lb, Lbu:
		return readsRs | writesRd
	case Lui:
		return writesRd
	case Sw, Sb, Beq, Bne, Blt, Bge:
		return readsRs | readsRt
	case Bltz, Bgez, Blez, Bgtz, Jr, Out:
		return readsRs
	case Jalr:
		return readsRs | writesRA
	case Jal:
		return writesRA
	default: // Invalid, J, Halt and undefined operations
		return 0
	}
}

// opOperands tabulates operandsOf for every Op value, so the simulator's
// per-instruction decode is a load rather than a switch.
var opOperands = func() (t [256]operands) {
	for o := range t {
		t[o] = operandsOf(Op(o))
	}
	return t
}()

// SourceRegs returns the architectural registers the instruction reads,
// register 0 and unused fields excluded, without allocating: the first n
// of r0, r1 are valid. An instruction reads at most two registers. (Two
// results rather than an array: the simulator's dispatch reads them once
// per instruction, and a returned array costs a store-forwarding stall.)
func (in Inst) SourceRegs() (r0, r1 Reg, n int) {
	ops := opOperands[in.Op]
	if ops&readsRs != 0 && in.Rs != Zero {
		r0, n = in.Rs, 1
	}
	if ops&readsRt != 0 && in.Rt != Zero {
		if n == 0 {
			r0 = in.Rt
		} else {
			r1 = in.Rt
		}
		n++
	}
	return r0, r1, n
}

// Sources returns the architectural registers the instruction reads, as a
// freshly allocated slice; hot paths use SourceRegs.
func (in Inst) Sources() []Reg {
	r0, r1, n := in.SourceRegs()
	if n == 0 {
		return nil
	}
	return []Reg{r0, r1}[:n]
}

// Dest returns the architectural register the instruction writes and
// whether it writes one at all (writes to register 0 are discarded).
func (in Inst) Dest() (Reg, bool) {
	d := Zero
	switch ops := opOperands[in.Op]; {
	case ops&writesRd != 0:
		d = in.Rd
	case ops&writesRA != 0:
		d = RA
	}
	return d, d != Zero
}

// IsControl reports whether the instruction can redirect fetch.
func (in Inst) IsControl() bool {
	c := ClassOf(in.Op)
	return c == ClassBranch || c == ClassJump
}

// IsConditional reports whether the instruction is a conditional branch.
func (in Inst) IsConditional() bool { return ClassOf(in.Op) == ClassBranch }

// String disassembles the instruction.
func (in Inst) String() string {
	switch ClassOf(in.Op) {
	case ClassLoad:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs)
	case ClassStore:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rt, in.Imm, in.Rs)
	case ClassBranch:
		switch in.Op {
		case Beq, Bne, Blt, Bge:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rs, in.Rt, in.Imm)
		default:
			return fmt.Sprintf("%s %s, %d", in.Op, in.Rs, in.Imm)
		}
	case ClassJump:
		switch in.Op {
		case Jr:
			return fmt.Sprintf("jr %s", in.Rs)
		case Jalr:
			return fmt.Sprintf("jalr %s", in.Rs)
		default:
			return fmt.Sprintf("%s %d", in.Op, in.Imm)
		}
	case ClassSystem:
		if in.Op == Out {
			return fmt.Sprintf("out %s", in.Rs)
		}
		return "halt"
	default:
		switch in.Op {
		case Lui:
			return fmt.Sprintf("lui %s, %d", in.Rd, in.Imm)
		case Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Sltiu:
			return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs, in.Imm)
		default:
			return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs, in.Rt)
		}
	}
}

// Program is an assembled unit: a text segment of instructions plus an
// initialized data image placed at DataBase.
type Program struct {
	Name    string
	Text    []Inst
	Data    []byte
	Symbols map[string]uint32 // label → instruction index or data address
}

// DataBase is the byte address at which Program.Data is loaded.
const DataBase uint32 = 0x10000

// StackTop is the conventional initial stack pointer (stacks grow down).
const StackTop uint32 = 0x7FFFF0
