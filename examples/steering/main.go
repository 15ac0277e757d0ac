// Steering replays the paper's Figure 12 example: the SPEC code segment is
// steered into four FIFOs, four instructions per cycle, with up to four
// ready instructions issuing per cycle, and the FIFO contents are printed
// after every cycle.
//
// Run with: go run ./examples/steering
package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// The Figure 12 code segment. Registers produced within the segment are
// modelled as physical registers; operands computed before the segment are
// already available and need no dependence edge.
var segment = []struct {
	text string
	dest int16
	srcs []int16
}{
	{"addu $18,$0,$2", 50, nil},
	{"addiu $2,$0,-1", 51, nil},
	{"beq $18,$2,L2", -1, []int16{50, 51}},
	{"lw $4,-32768($28)", 52, nil},
	{"sllv $2,$18,$20", 53, []int16{50}},
	{"xor $16,$2,$19", 54, []int16{53}},
	{"lw $3,-32676($28)", 55, nil},
	{"sll $2,$16,0x2", 56, []int16{54}},
	{"addu $2,$2,$23", 57, []int16{56}},
	{"lw $2,0($2)", 58, []int16{57}},
	{"sllv $4,$18,$4", 59, []int16{50, 52}},
	{"addu $17,$4,$19", 60, []int16{59}},
	{"addiu $3,$3,1", 61, []int16{55}},
	{"sw $3,-32676($28)", -1, []int16{61}},
	{"beq $2,$17,L3", -1, []int16{58, 60}},
}

func main() {
	bank := core.NewFIFOBank(core.FIFOBankConfig{
		Name: "fig12", Clusters: 1, FIFOsPerCluster: 4, Depth: 8,
	}, core.Bounds{InFlight: len(segment), PhysRegs: 64})
	uops := make([]*core.Uop, len(segment))
	for i, s := range segment {
		uops[i] = &core.Uop{Seq: uint64(i), PhysSrcs: s.srcs, PhysDest: s.dest, Cluster: -1, FIFO: -1}
	}

	fmt.Println("Figure 12: dependence-based steering of a SPEC code segment")
	fmt.Println("(4 FIFOs, steer 4 per cycle, issue up to 4 ready per cycle)")
	fmt.Println()
	for i, s := range segment {
		fmt.Printf("  %2d: %s\n", i, s.text)
	}
	fmt.Println()

	produced := map[int16]bool{}
	next := 0
	for cycle := 1; next < len(uops) || bank.Len() > 0; cycle++ {
		var steered []uint64
		for n := 0; n < 4 && next < len(uops); n++ {
			if !bank.Dispatch(uops[next]) {
				break // steering stall: retry next cycle
			}
			steered = append(steered, uops[next].Seq)
			next++
		}
		var issuedNow []uint64
		var done []int16
		n := 0
		bank.Select(int64(cycle), func(u *core.Uop) bool {
			if n >= 4 {
				return false
			}
			for _, p := range u.PhysSrcs {
				if p >= 0 && !produced[p] {
					return false
				}
			}
			n++
			issuedNow = append(issuedNow, u.Seq)
			if u.PhysDest >= 0 {
				done = append(done, u.PhysDest)
			}
			return true
		})
		for _, p := range done {
			produced[p] = true
			bank.Wakeup(p, int64(cycle+1))
		}

		fmt.Printf("cycle %d: steered %v, issued %v\n", cycle, fmtSeqs(steered), fmtSeqs(issuedNow))
		for f, q := range bank.FIFOContents() {
			fmt.Printf("  FIFO %d: %s\n", f, fmtQueue(q))
		}
	}
	fmt.Println("\nAll instructions issued; dependent chains travelled together and only")
	fmt.Println("FIFO heads ever needed wakeup/select — the paper's key simplification.")
}

func fmtSeqs(s []uint64) string {
	if len(s) == 0 {
		return "-"
	}
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

func fmtQueue(q []uint64) string {
	if len(q) == 0 {
		return "(empty)"
	}
	return "head→ " + fmtSeqs(q)
}
