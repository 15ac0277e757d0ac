package emu

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/asm"
	"repro/internal/isa"
)

func run(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(p)
	for i := 0; i < 1_000_000 && !m.Halted(); i++ {
		if _, err := m.Step(); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	if !m.Halted() {
		t.Fatal("program did not halt within 1M instructions")
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
		.text
		li   $t0, 21
		li   $t1, 2
		mul  $t2, $t0, $t1
		out  $t2          # 42
		sub  $t3, $t2, $t0
		out  $t3          # 21
		div  $t4, $t2, $t1
		out  $t4          # 21
		rem  $t5, $t2, $t0
		out  $t5          # 0
		halt
	`)
	want := []int32{42, 21, 21, 0}
	if len(m.Output) != len(want) {
		t.Fatalf("output = %v, want %v", m.Output, want)
	}
	for i := range want {
		if m.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, m.Output[i], want[i])
		}
	}
}

func TestLogicAndShifts(t *testing.T) {
	m := run(t, `
		.text
		li   $t0, 0xF0
		li   $t1, 0x0F
		or   $t2, $t0, $t1
		out  $t2              # 0xFF
		and  $t3, $t0, $t1
		out  $t3              # 0
		xor  $t4, $t0, $t2
		out  $t4              # 0x0F
		sll  $t5, $t1, 4
		out  $t5              # 0xF0
		li   $t6, -16
		sra  $t7, $t6, 2
		out  $t7              # -4
		srl  $t8, $t6, 28
		out  $t8              # 15
		halt
	`)
	want := []int32{0xFF, 0, 0x0F, 0xF0, -4, 15}
	for i := range want {
		if m.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, m.Output[i], want[i])
		}
	}
}

func TestComparisons(t *testing.T) {
	m := run(t, `
		.text
		li   $t0, -1
		li   $t1, 1
		slt  $t2, $t0, $t1
		out  $t2              # 1 (signed)
		sltu $t3, $t0, $t1
		out  $t3              # 0 (unsigned: 0xFFFFFFFF > 1)
		slti $t4, $t0, 0
		out  $t4              # 1
		halt
	`)
	want := []int32{1, 0, 1}
	for i := range want {
		if m.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, m.Output[i], want[i])
		}
	}
}

func TestMemory(t *testing.T) {
	m := run(t, `
		.data
w:		.word 0x11223344
b:		.byte 0xFF
		.text
		lw   $t0, w($zero)
		out  $t0              # 0x11223344
		lb   $t1, b($zero)
		out  $t1              # -1 (sign extended)
		lbu  $t2, b($zero)
		out  $t2              # 255
		li   $t3, 0x5A
		sb   $t3, w+1($zero)
		lw   $t4, w($zero)
		out  $t4              # 0x11225A44
		li   $t5, -7
		sw   $t5, 0x20000($zero)
		lw   $t6, 0x20000($zero)
		out  $t6              # -7
		halt
	`)
	want := []int32{0x11223344, -1, 255, 0x11225A44, -7}
	for i := range want {
		if m.Output[i] != want[i] {
			t.Errorf("output[%d] = %#x, want %#x", i, m.Output[i], want[i])
		}
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 = 55.
	m := run(t, `
		.text
		li   $t0, 10
		li   $t1, 0
loop:	add  $t1, $t1, $t0
		addi $t0, $t0, -1
		bgtz $t0, loop
		out  $t1
		halt
	`)
	if m.Output[0] != 55 {
		t.Errorf("sum = %d, want 55", m.Output[0])
	}
}

func TestCallAndReturn(t *testing.T) {
	m := run(t, `
		.text
main:	li   $a0, 5
		jal  double
		out  $v0              # 10
		jal  double2
		out  $v0              # 20
		halt
double:	add  $v0, $a0, $a0
		jr   $ra
double2: la  $t0, double
		move $s0, $ra         # jalr clobbers $ra; save it
		move $a0, $v0
		jalr $t0
		jr   $s0
	`)
	want := []int32{10, 20}
	for i := range want {
		if m.Output[i] != want[i] {
			t.Errorf("output[%d] = %d, want %d", i, m.Output[i], want[i])
		}
	}
}

func TestBranchRecordFields(t *testing.T) {
	p, err := asm.Assemble("test.s", `
		.text
		li   $t0, 1
		beq  $t0, $zero, skip
		bne  $t0, $zero, skip
		nop
skip:	halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if _, err := m.Step(); err != nil { // li
		t.Fatal(err)
	}
	rec, err := m.Step() // beq, not taken
	if err != nil {
		t.Fatal(err)
	}
	if rec.Taken || rec.NextPC != 2 {
		t.Errorf("not-taken branch: taken=%v nextPC=%d", rec.Taken, rec.NextPC)
	}
	rec, err = m.Step() // bne, taken
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Taken || rec.NextPC != 4 {
		t.Errorf("taken branch: taken=%v nextPC=%d, want taken→4", rec.Taken, rec.NextPC)
	}
}

func TestLoadStoreRecordAddress(t *testing.T) {
	p, err := asm.Assemble("test.s", `
		.text
		li  $t0, 0x100
		lw  $t1, 8($t0)
		sw  $t1, 12($t0)
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.Step()
	rec, _ := m.Step()
	if rec.Addr != 0x108 {
		t.Errorf("load addr = %#x, want 0x108", rec.Addr)
	}
	rec, _ = m.Step()
	if rec.Addr != 0x10C {
		t.Errorf("store addr = %#x, want 0x10C", rec.Addr)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	m := run(t, `
		.text
		li   $zero, 99
		addi $t0, $zero, 1
		out  $t0
		halt
	`)
	if m.Output[0] != 1 {
		t.Errorf("$zero was written: out = %d, want 1", m.Output[0])
	}
}

func TestHaltBehaviour(t *testing.T) {
	p, err := asm.Assemble("test.s", ".text\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if !m.Halted() {
		t.Error("machine not halted after Halt")
	}
	if _, err := m.Step(); !errors.Is(err, ErrHalted) {
		t.Errorf("Step after halt = %v, want ErrHalted", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	p, err := asm.Assemble("test.s", ".text\ndiv $t0, $t1, $zero\nhalt\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	if _, err := m.Step(); err == nil {
		t.Error("division by zero succeeded")
	}
}

func TestPCOutOfRange(t *testing.T) {
	p, err := asm.Assemble("test.s", ".text\nnop\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	m.Step()
	if _, err := m.Step(); err == nil {
		t.Error("fall off end of text succeeded")
	}
}

func TestRunMaxInsts(t *testing.T) {
	p, err := asm.Assemble("test.s", ".text\nloop: j loop\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, 100); err == nil {
		t.Error("infinite loop not caught by maxInsts")
	}
}

func TestMainSymbolStart(t *testing.T) {
	m := run(t, `
		.text
helper:	out  $zero        # must not run first
		halt
main:	li   $t0, 7
		out  $t0
		halt
	`)
	if len(m.Output) != 1 || m.Output[0] != 7 {
		t.Errorf("output = %v, want [7] (execution must start at main)", m.Output)
	}
}

func TestPropertyMemoryRoundTrip(t *testing.T) {
	f := func(addr uint32, v int32) bool {
		// Steer clear of the very top of the address space so addr+3
		// does not wrap.
		addr &= 0x7FFFFFF
		m := New(&isa.Program{Text: []isa.Inst{{Op: isa.Halt}}})
		m.StoreWord(addr, v)
		return m.LoadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyAluMatchesGo(t *testing.T) {
	// Random add/sub/xor programs must match Go's arithmetic.
	f := func(a, b int32) bool {
		p := &isa.Program{Text: []isa.Inst{
			{Op: isa.Addi, Rd: isa.T0, Rs: isa.Zero, Imm: a},
			{Op: isa.Addi, Rd: isa.T1, Rs: isa.Zero, Imm: b},
			{Op: isa.Add, Rd: isa.T2, Rs: isa.T0, Rt: isa.T1},
			{Op: isa.Sub, Rd: isa.T3, Rs: isa.T0, Rt: isa.T1},
			{Op: isa.Xor, Rd: isa.T4, Rs: isa.T0, Rt: isa.T1},
			{Op: isa.Out, Rs: isa.T2},
			{Op: isa.Out, Rs: isa.T3},
			{Op: isa.Out, Rs: isa.T4},
			{Op: isa.Halt},
		}}
		out, err := Run(p, 100)
		return err == nil && len(out) == 3 &&
			out[0] == a+b && out[1] == a-b && out[2] == a^b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
