package pipeline

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

func TestPipelinedWakeupSelectBreaksBackToBack(t *testing.T) {
	// Figure 10: with wakeup and select split across two stages,
	// dependent instructions cannot issue in consecutive cycles, so a
	// serial chain takes ≈2 cycles per link.
	p := mustProgram(t, chainSrc(64))
	fast := runProgram(t, cfg("atomic", 1, 0, window64), p)
	c := cfg("pipelined", 1, 0, window64)
	c.PipelinedWakeupSelect = true
	slow := runProgram(t, c, mustProgram(t, chainSrc(64)))
	if slow.Cycles < fast.Cycles+56 {
		t.Errorf("pipelined wakeup+select: %d cycles vs %d atomic; want ≈one extra cycle per chain link",
			slow.Cycles, fast.Cycles)
	}
	// Independent instructions are unaffected in throughput terms.
	ci := cfg("pipelined-ind", 1, 0, window64)
	ci.PipelinedWakeupSelect = true
	ind := runProgram(t, ci, mustProgram(t, independentSrc(64)))
	if ind.Cycles > 25 {
		t.Errorf("independent instructions slowed too much by pipelined wakeup: %d cycles", ind.Cycles)
	}
}

func TestLocalBypassExtraModelsIncompleteBypassing(t *testing.T) {
	// With no bypass network (operands only via the register file, ≈2
	// extra cycles), a serial chain takes ≈3 cycles per link.
	c := cfg("nobypass", 1, 0, window64)
	c.LocalBypassExtra = 2
	slow := runProgram(t, c, mustProgram(t, chainSrc(50)))
	fast := runProgram(t, cfg("full", 1, 0, window64), mustProgram(t, chainSrc(50)))
	if slow.Cycles < fast.Cycles+90 {
		t.Errorf("incomplete bypassing: %d cycles vs %d full; want ≈2 extra cycles per link",
			slow.Cycles, fast.Cycles)
	}
}

func TestRingTopologyCostsMoreThanFlat(t *testing.T) {
	// Four clusters, random steering: a scattered chain pays per-hop
	// latency on a unidirectional ring (mean ≈2 hops) versus a flat
	// crossbar (1 hop).
	sched := func(b core.Bounds) core.Scheduler {
		return core.NewFIFOBank(core.FIFOBankConfig{
			Name: "rand4", Clusters: 4, FIFOsPerCluster: 1, Depth: 16,
			AnySlot: true, Policy: core.SteerRandom,
		}, b)
	}
	flat := cfg("flat", 4, 1, sched)
	flat.FUsPerCluster = 2
	ring := cfg("ring", 4, 1, sched)
	ring.FUsPerCluster = 2
	ring.RingTopology = true
	p := chainSrc(200)
	fstats := runProgram(t, flat, mustProgram(t, p))
	rstats := runProgram(t, ring, mustProgram(t, p))
	if rstats.Cycles <= fstats.Cycles {
		t.Errorf("ring (%d cycles) not slower than flat interconnect (%d cycles)",
			rstats.Cycles, fstats.Cycles)
	}
}

func TestStoreForwarding(t *testing.T) {
	// A load that reads a word an in-flight store just wrote: with
	// forwarding it completes at hit latency; without, it pays the cold
	// miss and the run is longer.
	// The cold-miss load at the top keeps the ROB head busy, so the store
	// is still in flight (uncommitted, cache not yet written) when the
	// dependent load issues.
	src := `
		.text
		lw   $t9, 0x50000($zero)
		li   $t0, 0x40000
		li   $t1, 1234
		sw   $t1, 0($t0)
		lw   $t2, 0($t0)
` + strings.Repeat("\t\taddi $t2, $t2, 1\n", 20) + `
		out  $t2
		halt
	`
	plain := runProgram(t, cfg("plain", 1, 0, window64), mustProgram(t, src))
	c := cfg("fwd", 1, 0, window64)
	c.StoreForwarding = true
	fwd := runProgram(t, c, mustProgram(t, src))
	if fwd.ForwardedLoads != 1 {
		t.Errorf("forwarded loads = %d, want 1", fwd.ForwardedLoads)
	}
	if plain.ForwardedLoads != 0 {
		t.Errorf("forwarding happened with the feature off (%d)", plain.ForwardedLoads)
	}
	if fwd.Cycles >= plain.Cycles {
		t.Errorf("forwarding did not help: %d cycles vs %d", fwd.Cycles, plain.Cycles)
	}
}

func TestICacheModel(t *testing.T) {
	// A 512-byte I-cache cannot hold a long straight-line program: every
	// new line misses and fetch stalls.
	icache := cache.Config{SizeBytes: 512, Ways: 1, LineBytes: 32, HitCycles: 1, MissCycles: 6}
	c := cfg("icache", 1, 0, window64)
	c.ICache = &icache
	p := independentSrc(512)
	with := runProgram(t, c, mustProgram(t, p))
	without := runProgram(t, cfg("perfect-ic", 1, 0, window64), mustProgram(t, p))
	if with.ICache.Misses == 0 {
		t.Fatal("no I-cache misses on a straight-line 512-instruction program")
	}
	if with.Cycles <= without.Cycles {
		t.Errorf("I-cache misses cost nothing: %d vs %d cycles", with.Cycles, without.Cycles)
	}
	if without.ICache.Accesses != 0 {
		t.Error("perfect-I-cache run recorded I-cache accesses")
	}
}

func TestICacheLoopHits(t *testing.T) {
	// A tight loop fits in one line: one cold miss, then hits.
	src := `
		.text
		li   $s0, 100
loop:	addi $s0, $s0, -1
		bgtz $s0, loop
		halt
	`
	icache := cache.Config{SizeBytes: 1024, Ways: 2, LineBytes: 32, HitCycles: 1, MissCycles: 6}
	c := cfg("ic-loop", 1, 0, window64)
	c.ICache = &icache
	st := runProgram(t, c, mustProgram(t, src))
	if st.ICache.Misses > 2 {
		t.Errorf("loop caused %d I-cache misses, want ≤2", st.ICache.Misses)
	}
}

func TestFetchBreakOnTaken(t *testing.T) {
	// ILP-rich straight-line blocks separated by unconditional jumps: the
	// ideal fetch unit streams 8 instructions per cycle across the taken
	// jumps; breaking at each taken control caps fetch at ≈3 per cycle.
	regs := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5"}
	var b strings.Builder
	b.WriteString("\t.text\n")
	for blk := 0; blk < 60; blk++ {
		b.WriteString(strings.Repeat("\taddi "+regs[blk%len(regs)]+", $zero, 1\n", 1))
		b.WriteString("\taddi " + regs[(blk+1)%len(regs)] + ", $zero, 2\n")
		if blk < 59 {
			b.WriteString("\tj b" + strconv.Itoa(blk+1) + "\n")
			b.WriteString("b" + strconv.Itoa(blk+1) + ":\n")
		}
	}
	b.WriteString("\thalt\n")
	src := b.String()
	ideal := runProgram(t, cfg("anyfetch", 1, 0, window64), mustProgram(t, src))
	c := cfg("break", 1, 0, window64)
	c.FetchBreakOnTaken = true
	broken := runProgram(t, c, mustProgram(t, src))
	if broken.Cycles <= ideal.Cycles+20 {
		t.Errorf("fetch break had too little cost: %d vs %d cycles", broken.Cycles, ideal.Cycles)
	}
}

func TestTimelineRecording(t *testing.T) {
	src := `
		.text
		addi $t0, $zero, 1
		addi $t1, $t0, 1
		lw   $t2, 0x40000($zero)
		add  $t3, $t1, $t2
		halt
	`
	c := cfg("timeline", 1, 0, fifos8x8)
	c.RecordTimeline = true
	p := mustProgram(t, src)
	sim, err := New(c, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	tl := sim.Timeline()
	if uint64(len(tl)) != st.Committed {
		t.Fatalf("timeline has %d entries for %d committed", len(tl), st.Committed)
	}
	for i, e := range tl {
		if uint64(i) != e.Seq {
			t.Errorf("timeline out of order at %d: seq %d", i, e.Seq)
		}
		if !(e.Fetch <= e.Dispatch && e.Dispatch < e.Issue && e.Issue < e.Complete && e.Complete <= e.Commit) {
			t.Errorf("entry %d stages not monotone: %+v", i, e)
		}
		if e.FIFO < 0 {
			t.Errorf("entry %d: FIFO id not recorded (%d)", i, e.FIFO)
		}
	}
	// The dependent add (seq 3) must issue after the load completes.
	if tl[3].Issue < tl[2].Complete {
		t.Errorf("dependent add issued at %d before load completed at %d", tl[3].Issue, tl[2].Complete)
	}
	// Without the flag, no timeline accumulates.
	sim2, err := New(cfg("no-tl", 1, 0, window64), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if len(sim2.Timeline()) != 0 {
		t.Error("timeline recorded without RecordTimeline")
	}
}

func TestIssuedPerCycleHistogram(t *testing.T) {
	st := runProgram(t, cfg("hist", 1, 0, window64), mustProgram(t, independentSrc(64)))
	h := st.IssuedPerCycle
	if h == nil || h.Total() == 0 {
		t.Fatal("issue histogram not recorded")
	}
	if uint64(h.Total()) != uint64(st.Cycles) {
		t.Errorf("histogram samples %d != cycles %d", h.Total(), st.Cycles)
	}
	// 64 independent instructions at 8-wide: several full-width cycles.
	if h.Count(8) < 5 {
		t.Errorf("full-width issue cycles = %d, want ≥5", h.Count(8))
	}
	// Mean issued per cycle times cycles = committed (plus the halt).
	approx := h.Mean() * float64(st.Cycles)
	if approx < float64(st.Committed)*0.95 || approx > float64(st.Committed)*1.05 {
		t.Errorf("histogram mass %.1f inconsistent with %d committed", approx, st.Committed)
	}
}
