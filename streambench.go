package ce

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

// streamBenchMaxCycles bounds each StreamBench simulation leg. Huge
// workloads run ~1.5×10^8 instructions, so the sweep-wide maxCycles
// (sized for the paper workloads) is too tight for the monolithic
// truth run.
const streamBenchMaxCycles = 1 << 30

// StreamBenchResult is the sampled-simulation benchmark record: one
// workload captured (straight to disk, for huge workloads), timed
// exactly once by a monolithic replay, then estimated by phase
// sampling, timing at most a budget of its segments.
type StreamBenchResult struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Steps    uint64 `json:"steps"`
	Segments int    `json:"segments"`
	// Warmup is the fixed per-segment warmup prefix of the estimate.
	Warmup int64 `json:"warmup"`

	// TraceDiskBytes is the captured trace's file size.
	TraceDiskBytes int64   `json:"trace_disk_bytes"`
	CaptureSeconds float64 `json:"capture_seconds"`
	CapturePeakRSS int64   `json:"capture_peak_rss_bytes"`

	// The exact truth: one monolithic replay of the full trace.
	ExactWallSeconds float64 `json:"exact_wall_seconds"`
	ExactPeakRSS     int64   `json:"exact_peak_rss_bytes"`
	ExactCycles      int64   `json:"exact_cycles"`
	ExactIPC         float64 `json:"exact_ipc"`

	// The phase-sampled estimate, as the engine serves it: Phases
	// representatives timed, SimulatedSteps instructions measured.
	Phases             int     `json:"phases"`
	SimulatedSteps     uint64  `json:"simulated_steps"`
	SampledWallSeconds float64 `json:"sampled_wall_seconds"`
	SampledPeakRSS     int64   `json:"sampled_peak_rss_bytes"`
	SampledIPC         float64 `json:"sampled_ipc"`
	// IPCErrorPct is the sampled IPC's signed error against the exact
	// IPC, in percent.
	IPCErrorPct float64 `json:"ipc_error_pct"`
	// Speedup is ExactWallSeconds / SampledWallSeconds.
	Speedup float64 `json:"speedup"`
}

// peakRSSBytes reads the process's peak resident set (VmHWM) from
// /proc/self/status. Returns 0 where the proc interface is missing.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// resetPeakRSS resets VmHWM (writing "5" to /proc/self/clear_refs) so
// consecutive benchmark legs get independent peak measurements. Best
// effort: without the reset the values are monotone over the run.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// StreamBench benchmarks sampled simulation of one workload under the
// baseline configuration. The trace is captured (or loaded) through dir;
// dir == "" captures into an anonymous temp file. Either way the
// capture streams to disk in bounded memory, which is the point on huge
// workloads. The full trace is then timed once monolithically
// (the exact truth) and estimated by the engine's phase sampler, timing
// at most `budget` of the trace's `segments` segments, so SampledIPC is
// bit for bit the IPC a phase-sampled run serves.
func StreamBench(workload, dir string, segments, budget int) (*StreamBenchResult, error) {
	if segments == 0 {
		return nil, fmt.Errorf("streambench: need a segment count")
	}
	eng := NewEngine()
	if err := eng.SetPhaseSampling(segments, budget); err != nil {
		return nil, fmt.Errorf("streambench: %w", err)
	}
	if dir != "" {
		if err := eng.SetTraceDir(dir); err != nil {
			return nil, err
		}
	}

	resetPeakRSS()
	start := time.Now()
	tr, err := eng.traceFor(workload)
	if err != nil {
		return nil, err
	}
	cfg := BaselineConfig()
	res := &StreamBenchResult{
		Workload:       workload,
		Config:         cfg.Name,
		Steps:          tr.Steps(),
		Warmup:         segWarmup,
		TraceDiskBytes: tr.Footprint(),
		CaptureSeconds: time.Since(start).Seconds(),
		CapturePeakRSS: peakRSSBytes(),
	}

	resetPeakRSS()
	start = time.Now()
	sim, err := pipeline.NewReplay(cfg, trace.NewReader(tr))
	if err != nil {
		return nil, err
	}
	mono, err := sim.Run(streamBenchMaxCycles)
	if err != nil {
		return nil, err
	}
	res.ExactWallSeconds = time.Since(start).Seconds()
	res.ExactPeakRSS = peakRSSBytes()
	res.ExactCycles = mono.Cycles
	res.ExactIPC = mono.IPC()

	resetPeakRSS()
	start = time.Now()
	var attr simAttribution
	est, err := eng.runSegmented(cfg, tr, eng.segmentPlan(), &attr)
	if err != nil {
		return nil, fmt.Errorf("streambench: %w", err)
	}
	res.SampledWallSeconds = time.Since(start).Seconds()
	res.SampledPeakRSS = peakRSSBytes()
	res.Segments = attr.segments.Segments
	res.Phases = attr.segments.Phases
	res.SimulatedSteps = eng.TraceStats().StepsReplayed
	res.SampledIPC = est.IPC()
	if res.ExactIPC > 0 {
		res.IPCErrorPct = (res.SampledIPC - res.ExactIPC) / res.ExactIPC * 100
	}
	if res.SampledWallSeconds > 0 {
		res.Speedup = res.ExactWallSeconds / res.SampledWallSeconds
	}
	return res, nil
}
