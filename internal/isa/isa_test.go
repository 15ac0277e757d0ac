package isa

import (
	"strings"
	"testing"
)

func TestRegNames(t *testing.T) {
	cases := []struct {
		r    Reg
		want string
	}{
		{Zero, "$zero"}, {T0, "$t0"}, {SP, "$sp"}, {RA, "$ra"}, {FP, "$fp"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", c.r, got, c.want)
		}
	}
	if got := Reg(200).String(); got != "$r200" {
		t.Errorf("out-of-range reg = %q", got)
	}
}

func TestRegByName(t *testing.T) {
	for i := 0; i < NumRegs; i++ {
		name := Reg(i).String()[1:]
		r, ok := RegByName(name)
		if !ok || r != Reg(i) {
			t.Errorf("RegByName(%q) = %v, %v", name, r, ok)
		}
	}
	if r, ok := RegByName("8"); !ok || r != T0 {
		t.Errorf("numeric RegByName(8) = %v, %v", r, ok)
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName(bogus) succeeded")
	}
	if _, ok := RegByName("99"); ok {
		t.Error("RegByName(99) succeeded")
	}
}

func TestOpNamesRoundTrip(t *testing.T) {
	for op := Invalid + 1; op < numOps; op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			t.Errorf("op %d has no name", op)
			continue
		}
		back, ok := OpByName(name)
		if !ok || back != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v", name, back, ok, op)
		}
	}
	if _, ok := OpByName("frobnicate"); ok {
		t.Error("OpByName(frobnicate) succeeded")
	}
	if got := Invalid.String(); !strings.HasPrefix(got, "op(") {
		t.Errorf("Invalid.String() = %q", got)
	}
}

func TestClassOf(t *testing.T) {
	cases := []struct {
		op   Op
		want Class
	}{
		{Add, ClassALU}, {Slli, ClassALU}, {Lui, ClassALU},
		{Mul, ClassMul}, {Div, ClassDiv}, {Rem, ClassDiv},
		{Lw, ClassLoad}, {Lbu, ClassLoad},
		{Sw, ClassStore}, {Sb, ClassStore},
		{Beq, ClassBranch}, {Bgtz, ClassBranch},
		{J, ClassJump}, {Jalr, ClassJump},
		{Out, ClassSystem}, {Halt, ClassSystem},
	}
	for _, c := range cases {
		if got := ClassOf(c.op); got != c.want {
			t.Errorf("ClassOf(%v) = %v, want %v", c.op, got, c.want)
		}
	}
	if ClassALU.String() != "alu" || ClassStore.String() != "store" {
		t.Error("class names wrong")
	}
	if got := Class(99).String(); !strings.HasPrefix(got, "class(") {
		t.Errorf("unknown class = %q", got)
	}
}

func TestSources(t *testing.T) {
	cases := []struct {
		in   Inst
		want []Reg
	}{
		{Inst{Op: Add, Rd: T0, Rs: T1, Rt: T2}, []Reg{T1, T2}},
		{Inst{Op: Add, Rd: T0, Rs: Zero, Rt: T2}, []Reg{T2}}, // $zero dropped
		{Inst{Op: Addi, Rd: T0, Rs: T1}, []Reg{T1}},
		{Inst{Op: Lw, Rd: T0, Rs: SP}, []Reg{SP}},
		{Inst{Op: Sw, Rt: T3, Rs: SP}, []Reg{SP, T3}},
		{Inst{Op: Beq, Rs: T0, Rt: T1}, []Reg{T0, T1}},
		{Inst{Op: Bgtz, Rs: T0}, []Reg{T0}},
		{Inst{Op: Jr, Rs: RA}, []Reg{RA}},
		{Inst{Op: Out, Rs: V0}, []Reg{V0}},
		{Inst{Op: Lui, Rd: T0}, nil},
		{Inst{Op: J}, nil},
		{Inst{Op: Halt}, nil},
	}
	for _, c := range cases {
		got := c.in.Sources()
		if len(got) != len(c.want) {
			t.Errorf("%v.Sources() = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%v.Sources() = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestDest(t *testing.T) {
	if d, ok := (Inst{Op: Add, Rd: T0}).Dest(); !ok || d != T0 {
		t.Errorf("add dest = %v, %v", d, ok)
	}
	if _, ok := (Inst{Op: Add, Rd: Zero}).Dest(); ok {
		t.Error("write to $zero reported as a destination")
	}
	if d, ok := (Inst{Op: Jal}).Dest(); !ok || d != RA {
		t.Errorf("jal dest = %v, %v", d, ok)
	}
	for _, in := range []Inst{{Op: Sw}, {Op: Beq}, {Op: J}, {Op: Jr}, {Op: Halt}, {Op: Out}} {
		if _, ok := in.Dest(); ok {
			t.Errorf("%v has a destination", in)
		}
	}
}

func TestControlPredicates(t *testing.T) {
	if !(Inst{Op: Beq}).IsControl() || !(Inst{Op: Beq}).IsConditional() {
		t.Error("beq predicates wrong")
	}
	if !(Inst{Op: J}).IsControl() || (Inst{Op: J}).IsConditional() {
		t.Error("j predicates wrong")
	}
	if (Inst{Op: Add}).IsControl() {
		t.Error("add is not control")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: Add, Rd: T0, Rs: T1, Rt: T2}, "add $t0, $t1, $t2"},
		{Inst{Op: Addi, Rd: T0, Rs: T1, Imm: -5}, "addi $t0, $t1, -5"},
		{Inst{Op: Lui, Rd: T4, Imm: 7}, "lui $t4, 7"},
		{Inst{Op: Lw, Rd: T0, Rs: SP, Imm: 8}, "lw $t0, 8($sp)"},
		{Inst{Op: Sw, Rt: T0, Rs: SP, Imm: -4}, "sw $t0, -4($sp)"},
		{Inst{Op: Beq, Rs: T0, Rt: T1, Imm: 12}, "beq $t0, $t1, 12"},
		{Inst{Op: Bgtz, Rs: T0, Imm: 3}, "bgtz $t0, 3"},
		{Inst{Op: J, Imm: 9}, "j 9"},
		{Inst{Op: Jr, Rs: RA}, "jr $ra"},
		{Inst{Op: Jalr, Rs: T0}, "jalr $t0"},
		{Inst{Op: Out, Rs: V0}, "out $v0"},
		{Inst{Op: Halt}, "halt"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestOperandTableEveryOp checks the table-driven ClassOf, SourceRegs
// and Dest against the per-operation semantics, spelled out here
// independently, for every Op value (undefined ones are ALU operations
// that read and write nothing) and with register 0 in each field.
func TestOperandTableEveryOp(t *testing.T) {
	type want struct{ rs, rt, rd, ra bool }
	expect := map[Op]want{}
	for _, o := range []Op{Add, Sub, And, Or, Xor, Nor, Sllv, Srlv, Srav, Slt, Sltu, Mul, Div, Rem} {
		expect[o] = want{rs: true, rt: true, rd: true}
	}
	for _, o := range []Op{Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Sltiu, Lw, Lb, Lbu} {
		expect[o] = want{rs: true, rd: true}
	}
	for _, o := range []Op{Sw, Sb, Beq, Bne, Blt, Bge} {
		expect[o] = want{rs: true, rt: true}
	}
	for _, o := range []Op{Bltz, Bgez, Blez, Bgtz, Jr, Out} {
		expect[o] = want{rs: true}
	}
	expect[Lui] = want{rd: true}
	expect[Jalr] = want{rs: true, ra: true}
	expect[Jal] = want{ra: true}
	expect[Invalid], expect[J], expect[Halt] = want{}, want{}, want{}
	if len(expect) != int(numOps) {
		t.Fatalf("expectations cover %d operations, the ISA has %d", len(expect), numOps)
	}
	class := map[Op]Class{Mul: ClassMul, Div: ClassDiv, Rem: ClassDiv, Out: ClassSystem, Halt: ClassSystem}
	for _, o := range []Op{Lw, Lb, Lbu} {
		class[o] = ClassLoad
	}
	for _, o := range []Op{Sw, Sb} {
		class[o] = ClassStore
	}
	for _, o := range []Op{Beq, Bne, Blt, Bge, Bltz, Bgez, Blez, Bgtz} {
		class[o] = ClassBranch
	}
	for _, o := range []Op{J, Jal, Jr, Jalr} {
		class[o] = ClassJump
	}
	for op := 0; op < 256; op++ {
		if got, want := ClassOf(Op(op)), class[Op(op)]; got != want { // ClassALU is the zero Class
			t.Errorf("ClassOf(%v) = %v, want %v", Op(op), got, want)
		}
		w := expect[Op(op)]
		for _, regs := range [][3]Reg{{T0, T1, T2}, {Zero, T1, T2}, {T0, Zero, T2}, {T0, T1, Zero}} {
			in := Inst{Op: Op(op), Rs: regs[0], Rt: regs[1], Rd: regs[2]}
			var srcs []Reg
			if w.rs && in.Rs != Zero {
				srcs = append(srcs, in.Rs)
			}
			if w.rt && in.Rt != Zero {
				srcs = append(srcs, in.Rt)
			}
			r0, r1, n := in.SourceRegs()
			if n != len(srcs) || (n > 0 && r0 != srcs[0]) || (n > 1 && r1 != srcs[1]) {
				t.Errorf("%v: SourceRegs = %v, %v, %d, want %v", in, r0, r1, n, srcs)
			}
			dest, hasDest := Zero, false
			switch {
			case w.rd && in.Rd != Zero:
				dest, hasDest = in.Rd, true
			case w.ra:
				dest, hasDest = RA, true
			}
			if d, ok := in.Dest(); d != dest || ok != hasDest {
				t.Errorf("%v: Dest = %v, %v, want %v, %v", in, d, ok, dest, hasDest)
			}
		}
	}
}
