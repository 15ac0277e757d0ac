package ce

// The engine's trace pool: execute each workload once, time it under
// every configuration. The functional behaviour of a workload is
// configuration-independent, so the Engine captures one execution trace
// per workload (single-flight, like the run cache) and drives every
// simulation from a shared read-only trace.Reader instead of a private
// lockstep emulator. Replay is the engine's only drive mode; the
// differential harness in internal/verify and TestResultsDeterministic
// pin it against lockstep execution (pipeline.New, ce.Run).

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/trace"
)

// TraceStats counts the engine's trace-pool activity. It separates the
// one-time capture cost (CaptureSeconds, CaptureAllocs, one functional
// execution per workload) from the per-simulation replay cost that
// Stats.HostWallSeconds/HostAllocs report, and exposes the
// executed-versus-replayed instruction balance a sweep achieves.
type TraceStats struct {
	// Captures is the number of workloads functionally executed to build
	// a trace this process; DiskHits counts traces loaded from the trace
	// directory instead.
	Captures int `json:"captures"`
	DiskHits int `json:"disk_hits"`
	// ReplayRuns counts fresh simulations, every one replay-driven.
	ReplayRuns int `json:"replay_runs"`
	// CaptureSeconds and CaptureAllocs are the wall time and heap
	// allocations spent capturing traces — the one-time cost excluded
	// from every run's WallSeconds and Stats.HostAllocs.
	CaptureSeconds float64 `json:"capture_seconds"`
	CaptureAllocs  uint64  `json:"capture_allocs"`
	// StepsExecuted counts dynamic instructions resolved by functional
	// execution (trace captures); StepsReplayed counts those streamed
	// from pre-captured traces.
	StepsExecuted uint64 `json:"steps_executed"`
	StepsReplayed uint64 `json:"steps_replayed"`
	// SegmentRuns counts replay runs conducted phase-sampled
	// (segmented.go); SegmentsSimulated totals the representative
	// segments they timed.
	SegmentRuns       int `json:"segment_runs,omitempty"`
	SegmentsSimulated int `json:"segments_simulated,omitempty"`
	// CorruptDropped counts pooled traces dropped mid-replay after a
	// chunk failed its checksum; each was invalidated on disk and
	// recaptured once before the run retried.
	CorruptDropped int `json:"corrupt_dropped,omitempty"`
	// TraceDiskBytes totals the pooled traces' file sizes. Every trace
	// lives in a file, and readers hold only O(readers) chunk buffers
	// resident. Snapshot at query time.
	TraceDiskBytes int64 `json:"trace_disk_bytes"`
	// RecordsDecoded totals the records every replay run's private trace
	// reader decoded, segment warmup prefixes included, so it is at least
	// StepsReplayed.
	RecordsDecoded uint64 `json:"records_decoded,omitempty"`
	// SlabDecodes and SlabHits are always zero. They counted the shared
	// decoded-chunk cache that replay no longer has; they remain because
	// the benchmark harness in cebench/ reads them by name.
	SlabDecodes int `json:"slab_decodes,omitempty"`
	SlabHits    int `json:"slab_hits,omitempty"`
}

// Check reports the first violated counting invariant: each event is
// counted once, so no counter can exceed the events it is a subset of.
// A corrupt trace is dropped at most once per load or capture, and
// every replayed record was decoded.
func (ts TraceStats) Check() error {
	switch {
	case ts.CorruptDropped > ts.Captures+ts.DiskHits:
		return fmt.Errorf("trace stats: %d corrupt traces dropped, only %d captured + %d loaded",
			ts.CorruptDropped, ts.Captures, ts.DiskHits)
	case ts.RecordsDecoded < ts.StepsReplayed:
		return fmt.Errorf("trace stats: %d records decoded, fewer than %d replayed", ts.RecordsDecoded, ts.StepsReplayed)
	case ts.SegmentRuns > ts.ReplayRuns:
		return fmt.Errorf("trace stats: %d segment runs exceed %d replay runs", ts.SegmentRuns, ts.ReplayRuns)
	}
	return nil
}

// traceEntry is one workload's slot in the pool: the first goroutine to
// need the trace captures it while later ones wait on done (the same
// single-flight shape as internal/runcache).
type traceEntry struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// SetTraceDir persists captured traces under dir (created if absent) in
// the canonical on-disk format, so later processes reload them instead
// of re-executing workloads. Corrupt or truncated files are dropped and
// recaptured. Setting the current directory again is a no-op; changing
// it once the pool holds a trace is an error, since that trace lives in
// an anonymous file or the old directory and would never reach the new
// one. Set the directory on a fresh engine.
func (e *Engine) SetTraceDir(dir string) error {
	if err := trace.EnsureDir(dir); err != nil {
		return err
	}
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	if dir == e.traceDir {
		return nil
	}
	if len(e.traces) > 0 {
		return fmt.Errorf("ce: SetTraceDir(%q): the trace pool already holds %d trace(s); set the trace directory before the first run", dir, len(e.traces))
	}
	e.traceDir = dir
	return nil
}

// TraceStats returns a snapshot of the engine's trace-pool counters,
// including the pooled traces' current file sizes.
func (e *Engine) TraceStats() TraceStats {
	e.traceMu.Lock()
	defer e.traceMu.Unlock()
	ts := e.tstats
	for _, ent := range e.traces {
		select {
		case <-ent.done:
			if ent.err == nil && ent.tr != nil {
				ts.TraceDiskBytes += ent.tr.Footprint()
			}
		default:
		}
	}
	return ts
}

// warnOnce writes one diagnostic line to stderr per key for the
// engine's lifetime, so a sweep that meets the same trace fault ten
// thousand times complains exactly once per workload and cause.
func (e *Engine) warnOnce(key, format string, args ...any) {
	e.traceMu.Lock()
	if e.traceWarned[key] {
		e.traceMu.Unlock()
		return
	}
	if e.traceWarned == nil {
		e.traceWarned = make(map[string]bool)
	}
	e.traceWarned[key] = true
	e.traceMu.Unlock()
	fmt.Fprintf(os.Stderr, "ce: "+format+"\n", args...)
}

// traceFor returns workload's shared trace, capturing it exactly once
// per process however many configurations and goroutines ask. A failed
// capture reaches its waiters and is then forgotten, so the next call
// captures again, as the run cache does with transient errors.
func (e *Engine) traceFor(workload string) (*trace.Trace, error) {
	tr, _, err := e.traceForOwned(workload)
	return tr, err
}

// traceForOwned is traceFor plus ownership: owned is true for the one
// caller that performed the capture (or disk load), false for callers
// that merely waited on it. Attribution needs the distinction — every
// concurrent run of one workload blocks on the same capture, but the
// cost must be charged to exactly one run (the others report it as wait
// time), or a sweep's summed CaptureSeconds would count one capture once
// per waiting run.
func (e *Engine) traceForOwned(workload string) (tr *trace.Trace, owned bool, err error) {
	e.traceMu.Lock()
	for {
		ent, ok := e.traces[workload]
		if !ok {
			break
		}
		e.traceMu.Unlock()
		<-ent.done
		if ent.tr != nil || ent.err != nil {
			return ent.tr, false, ent.err
		}
		// A dropCorrupt placeholder: the corrupt trace is gone; look again.
		e.traceMu.Lock()
	}
	ent := &traceEntry{done: make(chan struct{})}
	if e.traces == nil {
		e.traces = make(map[string]*traceEntry)
	}
	e.traces[workload] = ent
	dir := e.traceDir
	e.traceMu.Unlock()
	ent.tr, ent.err = e.captureTrace(workload, dir)
	if ent.err != nil {
		e.traceMu.Lock()
		delete(e.traces, workload)
		e.traceMu.Unlock()
	}
	close(ent.done)
	return ent.tr, true, ent.err
}

// captureTrace loads workload's trace from the trace directory or
// captures it by functional execution, charging the cost to the pool's
// counters rather than to whichever simulation happened to arrive first.
// Processes sharing the directory may each capture the same workload;
// the capture lands by rename, so the last one replaces the file with
// identical bytes.
func (e *Engine) captureTrace(workload, dir string) (*trace.Trace, error) {
	w, err := prog.ByName(workload)
	if err != nil {
		return nil, err
	}
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if tr, err := trace.ReadFile(dir, p); err == nil {
			e.traceMu.Lock()
			e.tstats.DiskHits++
			e.traceMu.Unlock()
			return tr, nil
		} else if errors.Is(err, trace.ErrStaleFormat) {
			// A pre-v3 file from an older build: announce the migration
			// (the error text names both versions) before recapturing.
			e.warnOnce("stale:"+workload, "trace %s: %v", workload, err)
		}
		// Missing, stale or corrupt — ReadFile already removed a bad
		// file, so the recapture below rewrites the slot.
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	start := time.Now()
	// Either way the packed records stream to a file as they are
	// produced, so peak capture memory stays O(chunk) however long the
	// workload runs. Under a trace directory the file lands at its
	// canonical path atomically at the end.
	var tr *trace.Trace
	if dir != "" {
		tr, err = trace.CaptureToDir(p, maxCycles, dir)
	} else {
		tr, err = trace.Capture(p, maxCycles)
	}
	if err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	e.traceMu.Lock()
	e.tstats.Captures++
	e.tstats.CaptureSeconds += wall
	e.tstats.CaptureAllocs += ms.Mallocs - startAllocs
	e.tstats.StepsExecuted += tr.Steps()
	e.traceMu.Unlock()
	return tr, nil
}

// simAttribution carries cost attribution out of the run cache's compute
// closure: how much of the observed wall time was the workload's
// one-time trace capture (shared, reported separately) rather than this
// simulation's own cost.
type simAttribution struct {
	captureSeconds float64
	// captureWait is time spent blocked on a capture some *other* run
	// owns (and reports in its captureSeconds). Excluded from the run's
	// wall time like captureSeconds, but kept apart so summing
	// CaptureSeconds across a sweep's runs counts each capture once.
	captureWait float64
	// segments is non-nil when the run was conducted phase-sampled.
	segments *SegmentMetrics
}

// runSim performs one fresh simulation for the engine, driven from the
// workload's pooled trace. A failure to obtain the trace or to build the
// replay simulator is the run's error; the run cache memoizes it only if
// it is deterministic (internal/errclass). A trace whose chunk fails its
// checksum mid-replay — a torn write or storage fault in the trace
// directory — is dropped from the pool, invalidated on disk, and
// recaptured once before the run retries; a second corruption surfaces
// as an error.
func (e *Engine) runSim(cfg Config, workload string, attr *simAttribution) (Stats, error) {
	for attempt := 0; ; attempt++ {
		waitStart := time.Now()
		tr, owned, err := e.traceForOwned(workload)
		if owned {
			attr.captureSeconds += time.Since(waitStart).Seconds()
		} else {
			attr.captureWait += time.Since(waitStart).Seconds()
		}
		if err != nil {
			return Stats{}, err
		}
		var st Stats
		if plan := e.segmentPlan(); plan.k > 0 {
			st, err = e.runSegmented(cfg, tr, plan, attr)
		} else {
			st, err = e.runMonolithic(cfg, tr)
		}
		if err != nil && attempt == 0 && errors.Is(err, trace.ErrCorruptChunk) {
			e.dropCorrupt(workload, tr)
			continue
		}
		return st, err
	}
}

// runMonolithic replays the whole of tr through one simulator on a
// private streaming Reader.
func (e *Engine) runMonolithic(cfg Config, tr *trace.Trace) (Stats, error) {
	rd := trace.NewReader(tr)
	defer rd.Release()
	sim, err := pipeline.NewReplay(cfg, rd)
	if err != nil {
		return Stats{}, err
	}
	st, err := sim.Run(maxCycles)
	if err != nil {
		return st, err
	}
	e.traceMu.Lock()
	e.tstats.ReplayRuns++
	e.tstats.StepsReplayed += st.EmuSteps
	e.tstats.RecordsDecoded += rd.Decoded()
	e.traceMu.Unlock()
	return st, nil
}

// dropCorrupt evicts workload's pooled trace after a chunk checksum
// failure, deleting its backing file so the next traceFor call
// recaptures rather than reloading the same bad bytes. Every run that
// was replaying the bad trace calls it, but only the call that evicts
// the pool entry counts the drop and deletes the file: configs sharing
// one trace observe one corruption, not one each. While it deletes, the
// slot holds an in-flight placeholder, so no traceFor can reload the
// bad file in between (its callers wait, then look again); and a late
// caller never deletes the recaptured file that now sits at the path.
func (e *Engine) dropCorrupt(workload string, tr *trace.Trace) {
	var hold *traceEntry
	e.traceMu.Lock()
	if ent, ok := e.traces[workload]; ok {
		select {
		case <-ent.done:
			if ent.tr == tr {
				hold = &traceEntry{done: make(chan struct{})}
				e.traces[workload] = hold
				e.tstats.CorruptDropped++
			}
		default:
			// An in-flight recapture already owns the slot; leave it.
		}
	}
	e.traceMu.Unlock()
	if hold != nil {
		tr.Invalidate()
		e.traceMu.Lock()
		if e.traces[workload] == hold {
			delete(e.traces, workload)
		}
		e.traceMu.Unlock()
		close(hold.done)
	}
	e.warnOnce("corrupt:"+workload, "trace %s: chunk checksum failed mid-replay; dropping the trace and recapturing", workload)
}
