package ce

// Segment-parallel simulation: shard one workload's trace into K
// segments at the boundaries captured during its single functional
// execution, time each segment independently (fanning out across CPUs),
// and stitch the per-segment Stats back into one whole-run result.
//
// Two regimes, chosen by the engine's segment plan:
//
//   - Exact (warmup < 0, no phases): each segment replays its full
//     prefix as warmup, so the stitched result is bit-identical to the
//     monolithic run (the telescoping argument in internal/pipeline's
//     segment.go) and shares the monolithic run-cache key. Total work
//     is O(K·N), so this mode trades CPU for latency: wall clock drops
//     only when idle cores absorb the redundant prefixes.
//
//   - Sampled (phases > 0): the segments are clustered by their
//     basic-block vectors, one representative per phase is timed after
//     a fixed warmup prefix, and each is weighted by its phase's share
//     of the execution (SimPoint). Total work drops to roughly
//     (warmup + N/K) · phases records, which is where the real speedup
//     lives; the result is an estimate and carries a confidence
//     interval. A finite warmup without phases times every segment and
//     is likewise approximate. Approximate results are cached under a
//     key suffixed with the plan so they can never shadow (or be
//     shadowed by) an exact run.

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SegmentMetrics describes how a segmented run was conducted and, for
// sampled runs, how tight the estimate is.
type SegmentMetrics struct {
	// Segments is how many segments the trace was cut into; Simulated is
	// how many were actually timed (== Segments unless phase-sampled).
	Segments  int `json:"segments"`
	Simulated int `json:"simulated"`
	// Warmup is the per-segment warmup prefix in committed instructions
	// (-1 = full prefix).
	Warmup int64 `json:"warmup"`
	// Phases is the number of behavior clusters timed, one
	// representative each (0 unless phase-sampled).
	Phases int `json:"phases,omitempty"`
	// Exact reports whether the stitched result is bit-identical to the
	// monolithic run (full warmup, every segment timed).
	Exact bool `json:"exact"`
	// IPCMean and IPCHalfCI95 summarize the timed segments' IPC
	// population: the (phase-weighted, when phase-sampled) mean and the
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

// SetSegmentPhases selects phase-clustered sampling: the trace's
// segments are clustered into at most k phases by their basic-block
// vectors, one representative per phase is timed, and the results are
// stitched with cluster weights. k <= 0 times every segment.
func (e *Engine) SetSegmentPhases(k int) {
	e.traceMu.Lock()
	e.segPhases = k
	e.traceMu.Unlock()
}

// segPlan is a snapshot of the engine's segment configuration. Every
// field feeds segmented timing, so every field must reach the run-cache
// key segKeySuffix builds — TestSegKeySuffixCoversPlan checks it,
// because a plan field dropped from the key would let an approximate run
// masquerade as a different plan's (or the exact) result.
type segPlan struct {
	k      int   // segments to cut (<=1: monolithic)
	warmup int64 // fixed warmup prefix (-1: full, exact)
	phases int   // phase-clustered sampling (>0: at most this many phases)
}

// exact reports whether the plan stitches bit-identical to the
// monolithic run: full warmup, every segment timed.
func (p segPlan) exact() bool {
	return p.warmup < 0 && p.phases <= 0
}

// segmentPlan snapshots the engine's segment configuration.
func (e *Engine) segmentPlan() segPlan {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	return segPlan{k: e.segments, warmup: e.segWarmup, phases: e.segPhases}
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
	return fmt.Sprintf("\x00segments=%d warmup=%d phases=%d", p.k, p.warmup, p.phases)
}

// runSegments fans the given segment indices out across CPUs, running
// pipeline.RunSegment for each with the given warmup, and returns the
// per-segment Stats in index order and the records their readers
// decoded. The fan-out lives here — not in internal/pipeline, which is
// //ce:deterministic and goroutine-free — so each worker runs a fully
// independent Simulator over the shared read-only trace, holding one
// chunk buffer each for disk-backed traces (K workers keep O(K) chunks
// resident, whatever the trace size).
func runSegments(cfg Config, tr *trace.Trace, segs []trace.Segment, pick []int, warmup int64) ([]Stats, uint64, error) {
	parts := make([]Stats, len(pick))
	decoded := make([]uint64, len(pick))
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
				st, n, err := pipeline.RunSegment(cfg, tr, segs[pick[i]], warmup, maxCycles)
				if err != nil {
					errMu.Lock()
					if firstErr == nil || i < firstIdx {
						firstErr, firstIdx = err, i
					}
					errMu.Unlock()
					continue
				}
				parts[i] = st
				decoded[i] = n
			}
		}()
	}
	for i := range pick {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, 0, firstErr
	}
	var total uint64
	for _, n := range decoded {
		total += n
	}
	return parts, total, nil
}

// phasePick clusters segs into at most k phases and returns each
// phase's representative segment index with the phase's share of the
// execution.
func phasePick(tr *trace.Trace, segs []trace.Segment, k int) (pick []int, weights []float64) {
	for _, ph := range tr.SegmentPhases(segs, k) {
		pick = append(pick, ph.Rep)
		weights = append(weights, ph.Weight)
	}
	return pick, weights
}

// phaseEstimate is the phase-weighted IPC estimate of a phase-sampled
// run: the weighted mean of the representatives' IPCs with its 95%
// confidence half-width, and the whole-run cycle count with each
// phase's share of the trace's steps retiring at its representative's
// IPC.
func phaseEstimate(parts []Stats, weights []float64, steps uint64) (mean, half float64, cycles int64) {
	ipcs := make([]float64, len(parts))
	var cyc float64
	for i, p := range parts {
		ipcs[i] = p.IPC()
		if ipcs[i] > 0 {
			cyc += weights[i] * float64(steps) / ipcs[i]
		}
	}
	mean, half = stats.WeightedMeanCI95(ipcs, weights)
	return mean, half, int64(cyc)
}

// runSegmented performs one segment-parallel simulation of (cfg, tr)
// under the given plan and returns the stitched Stats plus the segment
// metrics recorded into the run's attribution.
//
// Phase mode times one representative segment per behavior cluster and
// weights it by the cluster's share of the execution, so the IPC mean
// is cluster-weighted and the cycle estimate sums each phase's
// instructions at its representative's IPC. Otherwise every segment is
// timed and the IPC population is unweighted.
func (e *Engine) runSegmented(cfg Config, tr *trace.Trace, plan segPlan, attr *simAttribution) (Stats, error) {
	segs := tr.Segments(plan.k)
	var (
		pick    []int
		weights []float64 // phase mode: pick[i]'s share of the execution
	)
	if plan.phases > 0 {
		pick, weights = phasePick(tr, segs, plan.phases)
	} else {
		pick = make([]int, len(segs))
		for i := range pick {
			pick[i] = i
		}
	}
	parts, decoded, err := runSegments(cfg, tr, segs, pick, plan.warmup)
	if err != nil {
		return Stats{}, err
	}
	st, err := pipeline.StitchStats(parts)
	if err != nil {
		return Stats{}, err
	}
	sm := &SegmentMetrics{
		Segments:        len(segs),
		Simulated:       len(parts),
		Warmup:          plan.warmup,
		Exact:           plan.exact(),
		EstimatedCycles: st.Cycles,
	}
	if plan.phases > 0 {
		sm.Phases = len(pick)
		var cyc int64
		sm.IPCMean, sm.IPCHalfCI95, cyc = phaseEstimate(parts, weights, tr.Steps())
		if cyc > 0 {
			sm.EstimatedCycles = cyc
		}
	} else {
		ipcs := make([]float64, len(parts))
		for i, p := range parts {
			ipcs[i] = p.IPC()
		}
		sm.IPCMean, sm.IPCHalfCI95 = stats.MeanCI95(ipcs)
	}
	attr.segments = sm
	e.traceMu.Lock()
	e.tstats.ReplayRuns++
	e.tstats.SegmentRuns++
	e.tstats.SegmentsSimulated += len(parts)
	e.tstats.StepsReplayed += st.EmuSteps
	e.tstats.RecordsDecoded += decoded
	e.traceMu.Unlock()
	return st, nil
}
