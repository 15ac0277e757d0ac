package ce

// Segment-parallel simulation: shard one workload's trace into K
// segments at the boundaries captured during its single functional
// execution, time each segment independently (fanning out across CPUs),
// and stitch the per-segment Stats back into one whole-run result.
//
// Two regimes, chosen by the engine's segment plan:
//
//   - Exact (warmup < 0, sample 1): each segment replays its full
//     prefix as warmup, so the stitched result is bit-identical to the
//     monolithic run (the telescoping argument in internal/pipeline's
//     segment.go) and shares the monolithic run-cache key. Total work
//     is O(K·N), so this mode trades CPU for latency: wall clock drops
//     only when idle cores absorb the redundant prefixes.
//
//   - Sampled (finite warmup and/or sample > 1): each measured segment
//     warms caches and predictors over a bounded prefix, and only every
//     sample-th segment is simulated. Total work drops to roughly
//     (warmup + N/K) · K/sample records, which is where the real
//     speedup lives; the result is an estimate and carries a
//     per-segment-IPC confidence interval. Approximate results are
//     cached under a key suffixed with the plan so they can never
//     shadow (or be shadowed by) an exact run.

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SegmentMetrics describes how a segmented run was conducted and, for
// sampled runs, how tight the estimate is.
type SegmentMetrics struct {
	// Segments is how many segments the trace was cut into; Simulated is
	// how many were actually timed (== Segments unless sampling).
	Segments  int `json:"segments"`
	Simulated int `json:"simulated"`
	// Warmup is the per-segment warmup prefix in committed instructions
	// (-1 = full prefix, the exact mode; 0 under adaptive warmup, which
	// replays no prefix at all).
	Warmup int64 `json:"warmup"`
	// Sample is the sampling stride: every Sample-th segment is timed.
	Sample int `json:"sample"`
	// Mode names how the timed segments were chosen: "exact" (all, full
	// warmup), "stride" (every Sample-th), or "phase" (one representative
	// per behavior cluster, weighted by cluster mass).
	Mode string `json:"mode"`
	// Phases is the number of behavior clusters found (phase mode only).
	Phases int `json:"phases,omitempty"`
	// Exact reports whether the stitched result is bit-identical to the
	// monolithic run (full warmup, no sampling).
	Exact bool `json:"exact"`
	// AdaptiveWarmup reports whether per-segment IPC-convergence warmup
	// replaced the fixed prefix; WarmupMeanSteps is then the mean
	// instructions each timed segment actually discarded, and
	// WarmupConverged counts segments whose windowed IPC settled before
	// the cap.
	AdaptiveWarmup  bool    `json:"adaptive_warmup,omitempty"`
	WarmupMeanSteps float64 `json:"warmup_mean_steps,omitempty"`
	WarmupConverged int     `json:"warmup_converged,omitempty"`
	// IPCMean and IPCHalfCI95 summarize the timed segments' IPC
	// population: the (phase-weighted, in phase mode) mean and the
	// half-width of its 95% confidence interval.
	IPCMean     float64 `json:"ipc_mean"`
	IPCHalfCI95 float64 `json:"ipc_half_ci95"`
	// EstimatedCycles extrapolates the whole-run cycle count from the
	// timed segments (equals the stitched cycles when every segment ran).
	EstimatedCycles int64 `json:"estimated_cycles"`
}

// SetSegments selects segment-parallel simulation for this engine's
// replay-driven runs: each workload's trace is cut into (up to) k
// segments timed independently. k <= 1 restores monolithic simulation.
func (e *Engine) SetSegments(k int) {
	e.traceMu.Lock()
	e.segments = k
	e.traceMu.Unlock()
}

// SetSegmentWarmup sets the per-segment warmup prefix, in committed
// instructions, whose cycles are discarded before a segment's
// measurement window opens. Negative means the full prefix (exact
// stitching, the default); 0 means cold-start at the boundary.
func (e *Engine) SetSegmentWarmup(warmup int64) {
	e.traceMu.Lock()
	e.segWarmup = warmup
	e.traceMu.Unlock()
}

// SetSegmentSample sets the sampling stride: every sample-th segment is
// simulated and the rest extrapolated. sample <= 1 simulates every
// segment.
func (e *Engine) SetSegmentSample(sample int) {
	e.traceMu.Lock()
	e.segSample = sample
	e.traceMu.Unlock()
}

// SetSegmentAdaptive replaces the fixed per-segment warmup prefix with
// IPC-convergence detection: each timed segment starts cold at its
// boundary and discards its own leading sub-windows until the windowed
// IPC settles (see pipeline.SegmentOpts). The result is approximate,
// like any finite warmup.
func (e *Engine) SetSegmentAdaptive(on bool) {
	e.traceMu.Lock()
	e.segAdaptive = on
	e.traceMu.Unlock()
}

// SetSegmentPhases selects phase-clustered sampling: the trace's
// segments are clustered into at most k phases by their basic-block
// vectors, one representative per phase is timed, and the results are
// stitched with cluster weights. k <= 0 disables (stride sampling
// applies). Traces without a BBV profile fall back to stride sampling.
func (e *Engine) SetSegmentPhases(k int) {
	e.traceMu.Lock()
	e.segPhases = k
	e.traceMu.Unlock()
}

// SetSegmentFlags applies the -warmup, -sample and -phases command-line
// spellings: warmup is an instruction count or "adaptive", sample a
// stride or "phase" (which then uses phases). The error names the flag.
func (e *Engine) SetSegmentFlags(warmup, sample string, phases int) error {
	if warmup == "adaptive" {
		e.SetSegmentAdaptive(true)
	} else {
		w, err := strconv.ParseInt(warmup, 10, 64)
		if err != nil {
			return fmt.Errorf("-warmup: %q is neither an instruction count nor 'adaptive'", warmup)
		}
		e.SetSegmentWarmup(w)
	}
	if sample == "phase" {
		e.SetSegmentPhases(phases)
		return nil
	}
	n, err := strconv.Atoi(sample)
	if err != nil {
		return fmt.Errorf("-sample: %q is neither a stride nor 'phase'", sample)
	}
	e.SetSegmentSample(n)
	return nil
}

// segPlan is a snapshot of the engine's segment configuration. Every
// field feeds segmented timing, so every field must reach the run-cache
// key segKeySuffix builds — TestSegKeySuffixCoversPlan checks it,
// because a plan field dropped from the key would let an approximate run
// masquerade as a different plan's (or the exact) result.
type segPlan struct {
	k        int   // segments to cut (<=1: monolithic)
	warmup   int64 // fixed warmup prefix (-1: full, exact)
	sample   int   // stride sampling (>=1)
	adaptive bool  // IPC-convergence warmup instead of the fixed prefix
	phases   int   // phase-clustered sampling (>0: at most this many phases)
}

// exact reports whether the plan stitches bit-identical to the
// monolithic run: full warmup, every segment timed.
func (p segPlan) exact() bool {
	return p.warmup < 0 && !p.adaptive && p.sample == 1 && p.phases <= 0
}

// segmentPlan snapshots the engine's segment configuration.
func (e *Engine) segmentPlan() segPlan {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	p := segPlan{
		k:        e.segments,
		warmup:   e.segWarmup,
		sample:   e.segSample,
		adaptive: e.segAdaptive,
		phases:   e.segPhases,
	}
	if p.sample < 1 {
		p.sample = 1
	}
	return p
}

// segKeySuffix returns the run-cache key suffix for the engine's
// current segment plan under cfg. Exact segmentation ("" as well as no
// segmentation at all) shares the monolithic key — the results are
// bit-identical, so a cache hit either way is correct. Approximate
// plans get a distinct suffix so an estimate can never masquerade as an
// exact result. Wrong-path configurations cannot replay and therefore
// always run monolithic, whatever the plan says.
func (e *Engine) segKeySuffix(cfg Config) string {
	p := e.segmentPlan()
	e.traceMu.Lock()
	noReplay := e.noReplay
	e.traceMu.Unlock()
	if p.k <= 1 || noReplay || cfg.WrongPathExecution {
		return ""
	}
	if p.exact() {
		return "" // exact: same bits as the monolithic run
	}
	return fmt.Sprintf("\x00segments=%d warmup=%d sample=%d adaptive=%t phases=%d",
		p.k, p.warmup, p.sample, p.adaptive, p.phases)
}

// runSegments fans the given segment indices out across CPUs, running
// pipeline.RunSegmentOpts for each, and returns the per-segment Stats
// and warmup reports in index order. The fan-out lives here — not in
// internal/pipeline, which is //ce:deterministic and goroutine-free —
// so each worker runs a fully independent Simulator over the shared
// read-only trace, holding one chunk buffer each for disk-backed
// traces (K workers keep O(K) chunks resident, whatever the trace
// size).
func runSegments(cfg Config, tr *trace.Trace, segs []trace.Segment, pick []int, opts pipeline.SegmentOpts) ([]Stats, []pipeline.SegmentReport, error) {
	parts := make([]Stats, len(pick))
	reports := make([]pipeline.SegmentReport, len(pick))
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		firstIdx int
	)
	idx := make(chan int)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pick) {
		workers = len(pick)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				st, rep, err := pipeline.RunSegmentOpts(cfg, tr, segs[pick[i]], opts, maxCycles)
				if err != nil {
					errMu.Lock()
					if firstErr == nil || i < firstIdx {
						firstErr, firstIdx = err, i
					}
					errMu.Unlock()
					continue
				}
				parts[i] = st
				reports[i] = rep
			}
		}()
	}
	for i := range pick {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return parts, reports, nil
}

// runSegmented performs one segment-parallel simulation of (cfg, tr)
// under the given plan and returns the stitched Stats plus the segment
// metrics recorded into the run's attribution.
//
// Phase mode times one representative segment per behavior cluster and
// weights it by the cluster's share of the execution, so the IPC mean
// is cluster-weighted (stats.WeightedMeanCI95) and the cycle estimate
// sums each phase's instructions at its representative's IPC. Stride
// mode times every sample-th segment and treats them as an unweighted
// IPC population.
func (e *Engine) runSegmented(cfg Config, tr *trace.Trace, plan segPlan, attr *simAttribution) (Stats, error) {
	segs := tr.Segments(plan.k)
	mode := "stride"
	if plan.exact() {
		mode = "exact"
	}
	var (
		pick    []int
		weights []float64 // phase mode: pick[i]'s share of the execution
	)
	if plan.phases > 0 {
		if phases := tr.SegmentPhases(segs, plan.phases); phases != nil {
			mode = "phase"
			pick = make([]int, len(phases))
			weights = make([]float64, len(phases))
			for i, ph := range phases {
				pick[i] = ph.Rep
				weights[i] = ph.Weight
			}
		}
		// No BBV profile (pre-v3 trace still resident): stride sampling.
	}
	if pick == nil {
		pick = make([]int, 0, (len(segs)+plan.sample-1)/plan.sample)
		for i := 0; i < len(segs); i += plan.sample {
			pick = append(pick, i)
		}
	}
	opts := pipeline.SegmentOpts{Warmup: plan.warmup, Adaptive: plan.adaptive}
	parts, reports, err := runSegments(cfg, tr, segs, pick, opts)
	if err != nil {
		return Stats{}, err
	}
	st, err := pipeline.StitchStats(parts)
	if err != nil {
		return Stats{}, err
	}
	ipcs := make([]float64, len(parts))
	for i, p := range parts {
		ipcs[i] = p.IPC()
	}
	var mean, half float64
	if mode == "phase" {
		mean, half = stats.WeightedMeanCI95(ipcs, weights)
	} else {
		mean, half = stats.MeanCI95(ipcs)
	}
	warmup := plan.warmup
	if plan.adaptive {
		warmup = 0
	}
	sm := &SegmentMetrics{
		Segments:        len(segs),
		Simulated:       len(parts),
		Warmup:          warmup,
		Sample:          plan.sample,
		Mode:            mode,
		Exact:           plan.exact(),
		AdaptiveWarmup:  plan.adaptive,
		IPCMean:         mean,
		IPCHalfCI95:     half,
		EstimatedCycles: st.Cycles,
	}
	if mode == "phase" {
		sm.Phases = len(pick)
		// Each phase's instructions retire at its representative's IPC.
		var cyc float64
		for i, w := range weights {
			if ipcs[i] > 0 {
				cyc += w * float64(tr.Steps()) / ipcs[i]
			}
		}
		if cyc > 0 {
			sm.EstimatedCycles = int64(cyc)
		}
	} else if plan.sample > 1 && mean > 0 {
		// Extrapolate: the whole trace at the sampled segments' mean IPC.
		sm.EstimatedCycles = int64(float64(tr.Steps()) / mean)
	}
	if plan.adaptive {
		var steps uint64
		for _, r := range reports {
			steps += r.WarmupSteps
			if r.Converged {
				sm.WarmupConverged++
			}
		}
		if len(reports) > 0 {
			sm.WarmupMeanSteps = float64(steps) / float64(len(reports))
		}
	}
	attr.segments = sm
	var decoded uint64
	for _, r := range reports {
		decoded += r.RecordsDecoded
	}
	e.traceMu.Lock()
	e.tstats.ReplayRuns++
	e.tstats.SegmentRuns++
	e.tstats.SegmentsSimulated += len(parts)
	e.tstats.StepsReplayed += st.EmuSteps
	e.tstats.RecordsDecoded += decoded
	e.traceMu.Unlock()
	return st, nil
}

// SegmentBenchResult quantifies what segment-parallel simulation buys
// on one (config, workload) pair: the monolithic baseline against the
// sampled segmented run, with the estimate's error and the wall-clock
// speedup.
type SegmentBenchResult struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Segments int    `json:"segments"`
	Sample   int    `json:"sample"`
	Warmup   int64  `json:"warmup"`
	Steps    uint64 `json:"steps"`

	MonoWallSeconds float64 `json:"mono_wall_seconds"`
	MonoCycles      int64   `json:"mono_cycles"`
	MonoIPC         float64 `json:"mono_ipc"`

	SampledWallSeconds float64 `json:"sampled_wall_seconds"`
	SampledIPC         float64 `json:"sampled_ipc"`
	IPCHalfCI95        float64 `json:"ipc_half_ci95"`
	// IPCErrorPct is the sampled IPC's signed error against the
	// monolithic truth, in percent.
	IPCErrorPct float64 `json:"ipc_error_pct"`
	// Speedup is MonoWallSeconds / SampledWallSeconds.
	Speedup float64 `json:"speedup"`
}

// SegmentBench measures segment-parallel sampled simulation against the
// monolithic baseline on one workload under the baseline configuration.
// The trace is captured (or loaded) up front so neither side is charged
// for it.
func SegmentBench(workload string, segments, sample int, warmup int64) (*SegmentBenchResult, error) {
	eng := NewEngine()
	tr, err := eng.traceFor(workload)
	if err != nil {
		return nil, err
	}
	cfg := BaselineConfig()

	start := time.Now()
	sim, err := pipeline.NewReplay(cfg, trace.NewReader(tr))
	if err != nil {
		return nil, err
	}
	mono, err := sim.Run(maxCycles)
	if err != nil {
		return nil, err
	}
	monoWall := time.Since(start).Seconds()

	segs := tr.Segments(segments)
	pick := make([]int, 0, len(segs))
	for i := 0; i < len(segs); i += max(sample, 1) {
		pick = append(pick, i)
	}
	start = time.Now()
	parts, _, err := runSegments(cfg, tr, segs, pick, pipeline.SegmentOpts{Warmup: warmup})
	if err != nil {
		return nil, err
	}
	sampledWall := time.Since(start).Seconds()
	ipcs := make([]float64, len(parts))
	for i, p := range parts {
		ipcs[i] = p.IPC()
	}
	mean, half := stats.MeanCI95(ipcs)

	res := &SegmentBenchResult{
		Workload: workload,
		Config:   cfg.Name,
		Segments: len(segs),
		Sample:   sample,
		Warmup:   warmup,
		Steps:    tr.Steps(),

		MonoWallSeconds: monoWall,
		MonoCycles:      mono.Cycles,
		MonoIPC:         mono.IPC(),

		SampledWallSeconds: sampledWall,
		SampledIPC:         mean,
		IPCHalfCI95:        half,
	}
	if res.MonoIPC > 0 {
		res.IPCErrorPct = (mean - res.MonoIPC) / res.MonoIPC * 100
	}
	if sampledWall > 0 {
		res.Speedup = monoWall / sampledWall
	}
	return res, nil
}
