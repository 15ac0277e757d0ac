package pipeline

// Segment runs: boot a Simulator from a trace boundary, discard a
// warmup prefix, measure a window, and return the window's Stats delta.
//
// The predictor, caches and window state are only approximately warm at
// the measurement boundary, so a segment's statistics estimate the
// window's. WeightStats extrapolates a set of such windows, one
// representative per phase, to a whole-run estimate.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// snapshot captures the run's cumulative statistics at the current
// cycle, mirroring exactly what Run's epilogue would report if the run
// stopped here. The histogram is deep-copied so the simulation can
// continue without mutating the snapshot.
func (s *Simulator) snapshot() Stats {
	st := s.stats
	st.Cycles = s.cycle
	st.Cache = s.dcache.Stats()
	if s.icache != nil {
		st.ICache = s.icache.Stats()
	}
	st.IssuedPerCycle = s.stats.IssuedPerCycle.Clone()
	return st
}

// RunUntilCommitted advances the simulation until at least target
// instructions have committed (counted from this simulator's own start,
// which for a seeked reader is the warm-start boundary) or the run
// completes, and returns a snapshot of the cumulative statistics. Call
// it repeatedly with increasing targets to snapshot one run at several
// commit horizons; deltas between snapshots are per-window statistics.
func (s *Simulator) RunUntilCommitted(target uint64, maxCycles int64) (Stats, error) {
	for !s.done() && s.stats.Committed < target {
		if maxCycles > 0 && s.cycle >= maxCycles {
			return s.snapshot(), fmt.Errorf("pipeline: %s/%s: exceeded %d cycles (%d of %d committed)",
				s.cfg.Name, s.stats.Workload, maxCycles, s.stats.Committed, target)
		}
		if err := s.step(); err != nil {
			return s.snapshot(), err
		}
	}
	return s.snapshot(), nil
}

// RunSegment simulates one trace segment under cfg with a fixed warmup:
// replay starts at the segment's warm-start boundary (see
// trace.Trace.WarmStart), cycles up to the segment start are discarded,
// and the returned Stats is the delta over the measurement window
// [seg.Start, seg.End). It also
// returns how many records the segment's trace reader decoded, warmup
// prefix included. Host telemetry covers the warmup leg too — that cost
// is real work this segment run performed.
func RunSegment(cfg Config, tr *trace.Trace, seg trace.Segment, warmup uint64, maxCycles int64) (Stats, uint64, error) {
	start := tr.WarmStart(seg, warmup)
	rd, err := trace.NewReaderAt(tr, start)
	if err != nil {
		return Stats{}, 0, err
	}
	defer rd.Release()
	sim, err := NewReplay(cfg, rd)
	if err != nil {
		return Stats{}, 0, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	startWall := time.Now() // host-performance telemetry, not simulated time

	warm, err := sim.RunUntilCommitted(seg.Start.Step-start.Step, maxCycles)
	if err != nil {
		return warm, rd.Decoded(), err
	}
	end, err := sim.RunUntilCommitted(seg.End.Step-start.Step, maxCycles)
	if err != nil {
		return end, rd.Decoded(), err
	}
	delta, err := SubStats(end, warm)
	if err != nil {
		return delta, rd.Decoded(), fmt.Errorf("pipeline: %s/%s segment %d: %w", cfg.Name, tr.Program().Name, seg.Index, err)
	}
	delta.HostWallSeconds = time.Since(startWall).Seconds()
	runtime.ReadMemStats(&ms)
	delta.HostAllocs = ms.Mallocs - startAllocs
	return delta, rd.Decoded(), nil
}

// SubStats returns end minus warm, counter by counter: the statistics of
// the window between two snapshots of one run. Every counter of end
// must be at least warm's (snapshots of a single run are monotone);
// a violation reports which counter went backwards instead of wrapping.
func SubStats(end, warm Stats) (Stats, error) {
	var firstErr error
	sub := func(a, b uint64, what string) uint64 {
		if a < b {
			if firstErr == nil {
				firstErr = fmt.Errorf("stats: %s went backwards between snapshots (%d then %d)", what, b, a)
			}
			return 0
		}
		return a - b
	}
	d := Stats{Config: end.Config, Workload: end.Workload}
	if end.Cycles < warm.Cycles {
		return d, fmt.Errorf("stats: cycles went backwards between snapshots (%d then %d)", warm.Cycles, end.Cycles)
	}
	d.Cycles = end.Cycles - warm.Cycles
	for _, c := range counters {
		*c.of(&d) = sub(*c.of(&end), *c.of(&warm), c.name)
	}
	d.IssuedPerCycle = end.IssuedPerCycle.Clone()
	if err := d.IssuedPerCycle.SubCounts(warm.IssuedPerCycle); err != nil {
		return d, err
	}
	d.HostAllocs = sub(end.HostAllocs, warm.HostAllocs, "host allocs")
	if end.HostWallSeconds >= warm.HostWallSeconds {
		d.HostWallSeconds = end.HostWallSeconds - warm.HostWallSeconds
	}
	return d, firstErr
}

// WeightStats extrapolates phase representatives to a whole run of
// steps instructions under cfg: representative i stands for the share
// weights[i] of the run, so its counters and issue-histogram buckets
// are scaled by weights[i]·steps / parts[i].Committed and summed. The
// result's Cycles is each phase's instructions retired at its
// representative's IPC, and its IPC the cycle-weighted (harmonic)
// estimate of the whole run. Host telemetry sums unscaled: it is the
// work the representatives actually cost.
func WeightStats(cfg Config, parts []Stats, weights []float64, steps uint64) (Stats, error) {
	if len(parts) == 0 || len(parts) != len(weights) {
		return Stats{}, fmt.Errorf("stats: weighting %d representatives by %d weights", len(parts), len(weights))
	}
	total := Stats{
		Config:         parts[0].Config,
		Workload:       parts[0].Workload,
		IssuedPerCycle: stats.NewHistogram(cfg.IssueWidth),
	}
	for i, p := range parts {
		if p.Config != total.Config || p.Workload != total.Workload {
			return total, fmt.Errorf("stats: weighting a %s/%s representative into a %s/%s run",
				p.Config, p.Workload, total.Config, total.Workload)
		}
		if p.Committed == 0 {
			return total, fmt.Errorf("stats: %s/%s representative %d committed nothing", p.Config, p.Workload, i)
		}
		f := weights[i] * float64(steps) / float64(p.Committed)
		scale := func(n uint64) uint64 { return uint64(math.Round(float64(n) * f)) }
		total.Cycles += int64(math.Round(float64(p.Cycles) * f))
		for _, c := range counters {
			*c.of(&total) += scale(*c.of(&p))
		}
		for v := 0; v <= cfg.IssueWidth; v++ {
			total.IssuedPerCycle.AddN(v, scale(p.IssuedPerCycle.Count(v)))
		}
		total.HostAllocs += p.HostAllocs
		total.HostWallSeconds += p.HostWallSeconds
	}
	return total, nil
}
