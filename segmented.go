package ce

// Phase-sampled simulation (SimPoint; Sherwood et al., ASPLOS 2002):
// cut one workload's trace into K segments at the boundaries captured
// during its single functional execution, cluster the segments by their
// basic-block vectors into at most k phases, time one representative
// per phase after a fixed warmup prefix (fanning out across CPUs), and
// weight each by its phase's share of the execution. Total work drops
// to roughly (segWarmup + steps/K) · k records. The result is an
// estimate served in place of a whole run, so it is cached under a key
// suffixed with the plan and can never shadow (or be shadowed by) a
// monolithic result.

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/pipeline"
	"repro/internal/trace"
)

// segWarmup is the fixed warmup prefix, in committed instructions, that
// each representative replays (cycles discarded) before its measurement
// window opens.
const segWarmup = 1 << 15

// SegmentMetrics describes how a phase-sampled run was conducted.
type SegmentMetrics struct {
	// Segments is how many segments the trace was cut into; Phases is
	// how many behavior clusters were timed, one representative each.
	Segments int `json:"segments"`
	Phases   int `json:"phases"`
}

// SetPhaseSampling selects phase-sampled simulation for this engine's
// replay-driven runs: each workload's trace is cut into (up to)
// segments segments, clustered into at most phases phases by their
// basic-block vectors, and one representative per phase is timed and
// weighted by its phase's share of the run. (0, 0) restores monolithic
// simulation; otherwise segments must be at least 2 and phases within
// [1, segments].
func (e *Engine) SetPhaseSampling(segments, phases int) error {
	if segments != 0 || phases != 0 {
		if segments < 2 {
			return fmt.Errorf("phase sampling: need at least 2 segments, got %d", segments)
		}
		if phases < 1 || phases > segments {
			return fmt.Errorf("phase sampling: %d phases out of range [1, %d]", phases, segments)
		}
	}
	e.traceMu.Lock()
	e.plan = segPlan{k: segments, phases: phases}
	e.traceMu.Unlock()
	return nil
}

// segPlan is a snapshot of the engine's phase-sampling configuration.
// Every field feeds sampled timing, so every field must reach the
// run-cache key segKeySuffix builds — TestSegKeySuffixCoversPlan checks
// it, because a plan field dropped from the key would let one plan's
// estimate masquerade as another's.
type segPlan struct {
	k      int // segments to cut (0: monolithic)
	phases int // at most this many phases, one representative each
}

// segmentPlan snapshots the engine's phase-sampling configuration.
func (e *Engine) segmentPlan() segPlan {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	return e.plan
}

// segKeySuffix returns the run-cache key suffix for the engine's
// current plan under cfg: "" for monolithic runs, and a suffix naming
// the plan and warmup for phase-sampled ones, so an estimate can never
// be recalled as (or instead of) a whole-run result.
func (e *Engine) segKeySuffix() string {
	p := e.segmentPlan()
	if p.k == 0 {
		return ""
	}
	return fmt.Sprintf("\x00sampled segments=%d phases=%d warmup=%d", p.k, p.phases, segWarmup)
}

// runSegments fans the given segment indices out across CPUs, running
// pipeline.RunSegment for each after segWarmup, and returns the
// per-segment Stats in index order and the records their readers
// decoded. The fan-out lives here — not in internal/pipeline, which
// stays goroutine-free by convention (TestResultsDeterministic fails if
// scheduling reaches a result) — so each worker runs a fully
// independent Simulator over the shared read-only trace, holding one
// chunk buffer each for disk-backed traces (K workers keep O(K) chunks
// resident, whatever the trace size).
func runSegments(cfg Config, tr *trace.Trace, segs []trace.Segment, pick []int) ([]Stats, uint64, error) {
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
				st, n, err := pipeline.RunSegment(cfg, tr, segs[pick[i]], segWarmup, maxCycles)
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

// runSegmented performs one phase-sampled simulation of (cfg, tr)
// under the given plan and returns the whole-run estimate
// (pipeline.WeightStats) plus the segment metrics recorded into the
// run's attribution. TraceStats counts the records the representatives
// actually simulated, not the extrapolated ones.
func (e *Engine) runSegmented(cfg Config, tr *trace.Trace, plan segPlan, attr *simAttribution) (Stats, error) {
	segs := tr.Segments(plan.k)
	var (
		pick    []int
		weights []float64 // pick[i]'s phase's share of the execution
	)
	for _, ph := range tr.SegmentPhases(segs, plan.phases) {
		pick = append(pick, ph.Rep)
		weights = append(weights, ph.Weight)
	}
	parts, decoded, err := runSegments(cfg, tr, segs, pick)
	if err != nil {
		return Stats{}, err
	}
	st, err := pipeline.WeightStats(cfg, parts, weights, tr.Steps())
	if err != nil {
		return Stats{}, err
	}
	var simulated uint64
	for _, p := range parts {
		simulated += p.EmuSteps
	}
	attr.segments = &SegmentMetrics{Segments: len(segs), Phases: len(parts)}
	e.traceMu.Lock()
	e.tstats.ReplayRuns++
	e.tstats.SegmentRuns++
	e.tstats.SegmentsSimulated += len(parts)
	e.tstats.StepsReplayed += simulated
	e.tstats.RecordsDecoded += decoded
	e.traceMu.Unlock()
	return st, nil
}
