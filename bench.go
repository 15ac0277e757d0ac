package ce

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/canonjson"
	"repro/internal/errclass"
	"repro/internal/verify"
)

// PipelineBenchResult is one configuration's simulator-performance
// measurement: how fast the timing simulator itself runs (host metrics),
// not how well the simulated machine performs. Serialized into
// BENCH_pipeline.json by `cesweep -bench-json` so the performance
// trajectory is tracked across changes.
type PipelineBenchResult struct {
	Config         string  `json:"config"`
	Workload       string  `json:"workload"`
	Cycles         int64   `json:"cycles"`
	Committed      uint64  `json:"committed"`
	WallSeconds    float64 `json:"wall_seconds"`
	MCyclesPerSec  float64 `json:"mcycles_per_sec"`
	HostAllocs     uint64  `json:"host_allocs"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
}

// SweepBenchResult is the whole-sweep simulator-performance record
// written to BENCH_sweep.json by `cesweep -bench-json` when a sweep ran
// in the same invocation: how long regenerating the results took, how
// many fresh simulations that was, and how much functional execution the
// engine's trace pool replaced with replay.
type SweepBenchResult struct {
	// WallSeconds is the host time from the first sweep selection to the
	// last, and Sims the number of fresh simulations performed in it
	// (cache hits and coalesced duplicates excluded).
	WallSeconds float64 `json:"wall_seconds"`
	Sims        int     `json:"sims"`
	SimsPerSec  float64 `json:"sims_per_sec"`
	// Trace is the trace pool's activity: workloads captured versus
	// loaded from disk, replay runs, one-time capture cost, and
	// dynamic instructions functionally executed versus replayed.
	Trace TraceStats `json:"trace"`
	// Segment, when present, benchmarks phase-sampled simulation
	// against the exact monolithic replay on a long workload, in memory.
	Segment *StreamBenchResult `json:"segment,omitempty"`
	// Stream, when present, is the same benchmark on a huge workload
	// streamed through disk (cesweep -stream-bench): wall time, peak RSS
	// and IPC error against the exact truth.
	Stream *StreamBenchResult `json:"stream,omitempty"`
}

// SweepBench summarizes a finished sweep on eng, timed by the caller;
// runs are the metrics eng reported to its observer during the sweep.
func SweepBench(eng *Engine, runs []RunMetrics, wallSeconds float64) SweepBenchResult {
	sims := 0
	for _, m := range runs {
		if !m.Cached {
			sims++
		}
	}
	r := SweepBenchResult{
		WallSeconds: wallSeconds,
		Sims:        sims,
		Trace:       eng.TraceStats(),
	}
	if wallSeconds > 0 {
		r.SimsPerSec = float64(sims) / wallSeconds
	}
	return r
}

// WriteSweepBenchJSON writes res to path as canonical indented JSON (the
// BENCH_sweep.json emitter behind `cesweep -bench-json`).
func WriteSweepBenchJSON(path string, res SweepBenchResult) error {
	data, err := canonjson.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadSweepBenchJSON loads a BENCH_sweep.json previously written by
// WriteSweepBenchJSON — the baseline side of `cesweep -bench-compare`.
// Malformed contents fail with errclass.ErrCorrupt.
func ReadSweepBenchJSON(path string) (SweepBenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return SweepBenchResult{}, err
	}
	var res SweepBenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		return SweepBenchResult{}, errclass.Corrupt(fmt.Errorf("%s: %w", path, err))
	}
	return res, nil
}

// BenchDelta is one compared entry of a baseline-versus-current
// BENCH_sweep.json pair.
type BenchDelta struct {
	// Name is the entry's dotted JSON path, Old/New its two values.
	Name string
	Old  float64
	New  float64
	// Gated marks the dimensionless ratios the comparison may fail on.
	// Absolute host timings (wall seconds, sims/sec) shift with machine
	// load and hardware, so they are report-only; speedups divide out
	// the machine and gate regressions.
	Gated bool
	// Regressed is set on a gated entry whose new value fell more than
	// the tolerance below the baseline (higher is better for every
	// gated entry).
	Regressed bool
}

// Pct is the relative change in percent (positive = increased).
func (d BenchDelta) Pct() float64 {
	if d.Old == 0 {
		return 0
	}
	return (d.New - d.Old) / d.Old * 100
}

// CompareSweepBench diffs cur against a baseline sweep-benchmark record,
// returning one delta per entry present on both sides. Gated entries
// regress when new < old × (1 − tolerancePct/100).
func CompareSweepBench(old, cur SweepBenchResult, tolerancePct float64) []BenchDelta {
	var out []BenchDelta
	add := func(name string, o, n float64, gated bool) {
		d := BenchDelta{Name: name, Old: o, New: n, Gated: gated}
		if gated && o > 0 && n < o*(1-tolerancePct/100) {
			d.Regressed = true
		}
		out = append(out, d)
	}
	add("wall_seconds", old.WallSeconds, cur.WallSeconds, false)
	add("sims_per_sec", old.SimsPerSec, cur.SimsPerSec, false)
	if old.Segment != nil && cur.Segment != nil {
		add("segment.speedup", old.Segment.Speedup, cur.Segment.Speedup, true)
	}
	if old.Stream != nil && cur.Stream != nil {
		add("stream.exact_wall_seconds", old.Stream.ExactWallSeconds, cur.Stream.ExactWallSeconds, false)
		add("stream.speedup", old.Stream.Speedup, cur.Stream.Speedup, false)
	}
	return out
}

// PipelineBenchConfigs returns the differential-verification panel with
// its instruments (invariant checker, timeline recording) stripped, so
// the production fast path — event-driven wakeup plus idle-cycle
// skipping — is what gets measured. One configuration per mechanism the
// simulator implements.
func PipelineBenchConfigs() []Config {
	cfgs := verify.Panel()
	for i := range cfgs {
		cfgs[i].CheckInvariants = false
		cfgs[i].RecordTimeline = false
	}
	return cfgs
}

// PipelineBench times every panel configuration on one workload with a
// fresh simulator per run (no run cache), returning per-configuration
// host-performance results.
func PipelineBench(workload string) ([]PipelineBenchResult, error) {
	cfgs := PipelineBenchConfigs()
	out := make([]PipelineBenchResult, 0, len(cfgs))
	for _, cfg := range cfgs {
		st, err := Run(cfg, workload)
		if err != nil {
			return nil, fmt.Errorf("bench %s/%s: %w", cfg.Name, workload, err)
		}
		r := PipelineBenchResult{
			Config:      cfg.Name,
			Workload:    workload,
			Cycles:      st.Cycles,
			Committed:   st.Committed,
			WallSeconds: st.HostWallSeconds,
			HostAllocs:  st.HostAllocs,
		}
		if st.HostWallSeconds > 0 {
			r.MCyclesPerSec = float64(st.Cycles) / st.HostWallSeconds / 1e6
		}
		if st.Cycles > 0 {
			r.AllocsPerCycle = float64(st.HostAllocs) / float64(st.Cycles)
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteBenchJSON runs PipelineBench and writes the results to path as
// canonical indented JSON (the BENCH_pipeline.json emitter behind
// `cesweep -bench-json`).
func WriteBenchJSON(path, workload string) ([]PipelineBenchResult, error) {
	res, err := PipelineBench(workload)
	if err != nil {
		return nil, err
	}
	data, err := canonjson.Marshal(res)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}
