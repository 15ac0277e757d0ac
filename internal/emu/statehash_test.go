package emu

import (
	"testing"

	"repro/internal/asm"
)

func TestStateHashDetectsDivergence(t *testing.T) {
	src := `
		.data
buf:	.space 64
		.text
main:	li   $t0, 7
		la   $t1, buf
		sw   $t0, 4($t1)
		out  $t0
		halt
`
	p, err := asm.Assemble("hash.s", src)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Machine {
		m := New(p)
		for !m.Halted() {
			if _, err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	a, b := run(), run()
	if a.StateHash() != b.StateHash() {
		t.Error("identical runs hash differently")
	}
	b.SetReg(8, 99)
	if a.StateHash() == b.StateHash() {
		t.Error("register divergence not reflected in hash")
	}
	c := run()
	c.StoreByte(0x20000, 1)
	if a.StateHash() == c.StateHash() {
		t.Error("memory divergence not reflected in hash")
	}
	d := run()
	d.Output = append(d.Output, 0)
	if a.StateHash() == d.StateHash() {
		t.Error("output divergence not reflected in hash")
	}
}

func TestStateHashIgnoresRestoredZeroPages(t *testing.T) {
	// A write to a fresh page allocates it; writing zero back leaves the
	// page allocated but all-zero. The hash must not see the allocation.
	src := `
		.text
main:	out  $zero
		halt
`
	p, err := asm.Assemble("hash.s", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(p)
	for !m.Halted() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	before := m.StateHash()
	m.StoreByte(0x40000, 42) // allocates an untouched page
	m.StoreByte(0x40000, 0)
	if m.StateHash() != before {
		t.Error("a fresh page written back to zero changed the hash")
	}
}
