package verify

// Differential verification of the segment-parallel seam
// (internal/pipeline's segment.go, orchestrated by the root package):
// stitched full-warmup segment runs must equal the monolithic replay
// run on every deterministic statistic, and sampled finite-warmup
// stitching must land inside its stated error bars. Generated panel
// programs are too short to cross a boundary, so this check runs on
// named workloads long enough to segment.

import (
	"fmt"

	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/stats"
	"repro/internal/trace"
)

// sampledTolerance is the error bar CheckSegmented holds sampled
// stitching to: the monolithic IPC must lie within the per-segment 95%
// confidence interval widened by this relative slack (finite warmup
// biases every segment the same way, which a CI over segments cannot
// see).
const sampledTolerance = 0.10

// CheckSegmented differentially verifies segment-parallel simulation of
// one named workload against every replay-capable panel configuration,
// cutting the trace into (up to) k segments. Wrong-path configurations
// are skipped: they cannot replay, so the engine never segments them.
func CheckSegmented(workload string, k int) error {
	w, err := prog.ByName(workload)
	if err != nil {
		return err
	}
	p, err := w.Program()
	if err != nil {
		return err
	}
	tr, err := trace.Capture(p, maxInsts)
	if err != nil {
		return fmt.Errorf("verify: %s: %w", workload, err)
	}
	if tr.Boundaries() == 0 {
		return fmt.Errorf("verify: %s (%d steps) has no segment boundaries; pick a longer workload", workload, tr.Steps())
	}
	for _, cfg := range Panel() {
		if cfg.WrongPathExecution {
			continue
		}
		bare := cfg
		bare.CheckInvariants = false
		bare.RecordTimeline = false
		if err := checkSegmentedOne(bare, tr, k); err != nil {
			return err
		}
	}
	return nil
}

// CheckSegmentedStreamed is CheckSegmented through the disk-backed
// path: the workload is captured twice, once in memory and once
// streamed into dir, and the two traces must agree on every execution
// property; then every replay-capable panel configuration must produce
// identical monolithic statistics from both traces (the streamed
// reader is byte-equivalent to the in-memory one), and the segmented
// seam is re-verified over the streamed trace, whose segment workers
// seek and stream their chunks from the file.
func CheckSegmentedStreamed(workload string, k int, dir string) error {
	w, err := prog.ByName(workload)
	if err != nil {
		return err
	}
	p, err := w.Program()
	if err != nil {
		return err
	}
	mem, err := trace.Capture(p, maxInsts)
	if err != nil {
		return fmt.Errorf("verify: %s: %w", workload, err)
	}
	disk, err := trace.CaptureToDir(p, maxInsts, dir)
	if err != nil {
		return fmt.Errorf("verify: %s (streamed): %w", workload, err)
	}
	if mem.Steps() != disk.Steps() {
		return fmt.Errorf("verify: %s: streamed capture took %d steps, in-memory %d", workload, disk.Steps(), mem.Steps())
	}
	if mem.StateHash() != disk.StateHash() {
		return fmt.Errorf("verify: %s: streamed capture's final state diverges from the in-memory capture's", workload)
	}
	for _, cfg := range Panel() {
		if cfg.WrongPathExecution {
			continue
		}
		bare := cfg
		bare.CheckInvariants = false
		bare.RecordTimeline = false
		fromMem, err := replayMono(bare, mem)
		if err != nil {
			return fmt.Errorf("verify: %s on %s: %w", workload, bare.Name, err)
		}
		fromDisk, err := replayMono(bare, disk)
		if err != nil {
			return fmt.Errorf("verify: %s on %s (streamed): %w", workload, bare.Name, err)
		}
		if err := diffStats(fromDisk, fromMem); err != nil {
			return fmt.Errorf("verify: %s on %s: streamed reader diverges from in-memory: %w", workload, bare.Name, err)
		}
		if err := checkSegmentedOne(bare, disk, k); err != nil {
			return err
		}
	}
	return nil
}

func replayMono(cfg pipeline.Config, tr *trace.Trace) (pipeline.Stats, error) {
	sim, err := pipeline.NewReplay(cfg, trace.NewReader(tr))
	if err != nil {
		return pipeline.Stats{}, err
	}
	return sim.Run(maxCycles)
}

func checkSegmentedOne(cfg pipeline.Config, tr *trace.Trace, k int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("verify: %s on %s (segmented): %s", tr.Program().Name, cfg.Name, fmt.Sprintf(format, args...))
	}
	sim, err := pipeline.NewReplay(cfg, trace.NewReader(tr))
	if err != nil {
		return fail("%v", err)
	}
	mono, err := sim.Run(maxCycles)
	if err != nil {
		return fail("%v", err)
	}
	segs := tr.Segments(k)
	if len(segs) < 2 {
		return fail("Segments(%d) produced %d segments from %d boundaries", k, len(segs), tr.Boundaries())
	}

	// Exact regime: full warmup, every segment. The stitched statistics
	// must equal the monolithic run's on every deterministic field.
	parts := make([]pipeline.Stats, len(segs))
	for i, seg := range segs {
		parts[i], _, err = pipeline.RunSegment(cfg, tr, seg, -1, maxCycles)
		if err != nil {
			return fail("segment %d: %v", i, err)
		}
	}
	stitched, err := pipeline.StitchStats(parts)
	if err != nil {
		return fail("%v", err)
	}
	if err := diffStats(stitched, mono); err != nil {
		return fail("full-warmup stitch: %v", err)
	}

	// Sampled regime: finite warmup, every second segment. The estimate
	// must stay inside its stated error bars against the monolithic IPC.
	var ipcs []float64
	for i := 0; i < len(segs); i += 2 {
		st, _, err := pipeline.RunSegment(cfg, tr, segs[i], 1<<14, maxCycles)
		if err != nil {
			return fail("sampled segment %d: %v", i, err)
		}
		ipcs = append(ipcs, st.IPC())
	}
	mean, half := stats.MeanCI95(ipcs)
	slack := half + sampledTolerance*mean
	if d := mean - mono.IPC(); d > slack || d < -slack {
		return fail("sampled IPC %.4f ± %.4f misses monolithic %.4f (tolerance %.4f)",
			mean, half, mono.IPC(), slack)
	}
	return nil
}

// diffStats reports the first deterministic statistic on which got
// diverges from want (host telemetry is exempt — it measures the runs
// themselves, which legitimately differ).
func diffStats(got, want pipeline.Stats) error {
	cmp := func(g, w uint64, what string) error {
		if g != w {
			return fmt.Errorf("%s = %d, monolithic %d", what, g, w)
		}
		return nil
	}
	if got.Cycles != want.Cycles {
		return fmt.Errorf("cycles = %d, monolithic %d", got.Cycles, want.Cycles)
	}
	checks := []error{
		cmp(got.Committed, want.Committed, "committed"),
		cmp(got.EmuSteps, want.EmuSteps, "emu steps"),
		cmp(got.CondBranches, want.CondBranches, "cond branches"),
		cmp(got.Mispredicts, want.Mispredicts, "mispredicts"),
		cmp(got.InterClusterUops, want.InterClusterUops, "inter-cluster uops"),
		cmp(got.ForwardedLoads, want.ForwardedLoads, "forwarded loads"),
		cmp(got.SquashedUops, want.SquashedUops, "squashed uops"),
		cmp(got.SchedulerStalls, want.SchedulerStalls, "scheduler stalls"),
		cmp(got.PhysRegStalls, want.PhysRegStalls, "physreg stalls"),
		cmp(got.ROBStalls, want.ROBStalls, "rob stalls"),
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if got.Cache != want.Cache || got.ICache != want.ICache {
		return fmt.Errorf("cache stats %+v/%+v, monolithic %+v/%+v", got.Cache, got.ICache, want.Cache, want.ICache)
	}
	if g, w := got.IssuedPerCycle.Total(), want.IssuedPerCycle.Total(); g != w {
		return fmt.Errorf("issue histogram records %d cycles, monolithic %d", g, w)
	}
	for v := 0; v <= 16; v++ {
		if g, w := got.IssuedPerCycle.Count(v), want.IssuedPerCycle.Count(v); g != w {
			return fmt.Errorf("issue histogram bucket %d = %d, monolithic %d", v, g, w)
		}
	}
	return nil
}
