// Cesweep regenerates the paper's simulation results: Figure 13 (IPC of
// the dependence-based machine versus the baseline window machine),
// Figure 15 (the clustered 2×4-way machine), Figure 17 (the clustered
// design space, IPC and inter-cluster bypass frequency), the Section 5.5
// speedup estimate, and the window-size trade-off extension.
//
// Usage:
//
//	cesweep -fig 13        # one figure
//	cesweep -speedup       # Section 5.5 estimate
//	cesweep -tradeoff      # window-size trade-off (extension)
//	cesweep -all           # everything
//	cesweep -all -csv      # CSV output
//	cesweep -fig 13 -json  # canonical JSON (byte-identical to cesweepd)
//
// Sweeps share one content-addressed run cache, so a (config, workload)
// pair revisited by several figures is simulated once per process.
// Observability flags:
//
//	-v                  per-run progress, cache and trace-pool statistics
//	                    on stderr
//	-metrics-json FILE  dump per-run metrics and cache counters as JSON
//	-metrics-det FILE   dump only the deterministic metrics (stable order,
//	                    host timings scrubbed) — byte-identical across
//	                    runs and machines
//	-cache-dir DIR      persist run results on disk across invocations
//
// Each workload is executed once per process and every simulation is
// driven from the shared captured trace (replay); results are identical
// to lockstep execution (cesim, ce.Run):
//
//	-trace-dir DIR      persist captured traces on disk across invocations
//
// Phase sampling estimates each replay-driven run from a few timed
// segments instead of the whole trace (SimPoint):
//
//	-segments K         cut each trace into K segments (0 = monolithic)
//	-phases k           cluster the segments into at most k phases by
//	                    their basic-block vectors and time one
//	                    representative per phase after a fixed
//	                    32768-instruction warmup, weighted by its share
//	                    of the run; the served result is the whole-run
//	                    estimate (1 <= k <= K, required with -segments)
//
// Host-performance flags for working on the simulator itself:
//
//	-bench-json FILE    benchmark the simulator on every verification-panel
//	                    configuration over compress and write
//	                    BENCH_pipeline.json; if a sweep ran too, write its
//	                    wall time, sims/sec and executed-versus-replayed
//	                    balance to BENCH_sweep.json
//	-stream-bench W     benchmark streamed capture + sampled simulation on
//	                    huge workload W (e.g. compress.huge): capture the
//	                    trace straight to -trace-dir, time it exactly once
//	                    monolithically, then estimate it by phase sampling
//	                    with the plan given by -segments and -phases; wall
//	                    time, peak RSS and IPC error go to BENCH_sweep.json
//	-bench-compare F    compare this run's BENCH_sweep.json entries against
//	                    the baseline at F and print per-entry deltas
//	-bench-tolerance P  percent a gated ratio (segment speedup) may fall
//	                    below the baseline before the comparison exits
//	                    nonzero; negative = warn only
//	-cpuprofile FILE    write a CPU profile of the sweep
//	-memprofile FILE    write a heap profile taken after the sweep
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/canonjson"
	"repro/internal/report"
)

var (
	figure     = flag.Int("fig", 0, "figure to regenerate: 13, 15 or 17")
	speedup    = flag.Bool("speedup", false, "print the Section 5.5 speedup estimate")
	tradeoff   = flag.Bool("tradeoff", false, "print the window-size trade-off (extension)")
	ablations  = flag.Bool("ablations", false, "run the steering/geometry/latency/predictor/atomicity ablations (extensions)")
	micro      = flag.Bool("micro", false, "run the microbenchmark characterization (extension)")
	frontier   = flag.Bool("frontier", false, "rank design points by IPC x estimated clock (extension)")
	profiles   = flag.Bool("profiles", false, "print dynamic workload profiles (extension)")
	all        = flag.Bool("all", false, "regenerate every simulation result")
	csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut    = flag.Bool("json", false, "emit figures and the frontier as canonical JSON (the cesweepd wire format)")
	verbose    = flag.Bool("v", false, "print per-run progress and cache statistics to stderr")
	metrics    = flag.String("metrics-json", "", "write per-run metrics and cache statistics to this file as JSON")
	metricsDet = flag.String("metrics-det", "", "write deterministic per-run metrics (stable order, host timings scrubbed) to this file as JSON")
	cacheDir   = flag.String("cache-dir", "", "persist simulation results as JSON under this directory")
	traceDir   = flag.String("trace-dir", "", "persist captured execution traces under this directory")
	segments   = flag.Int("segments", 0, "phase sampling: cut each trace into this many segments (0 = monolithic)")
	segPhases  = flag.Int("phases", 0, "phase sampling: time one representative segment per behavior cluster, at most this many, weighted by cluster mass (1..-segments)")
	benchJSON  = flag.String("bench-json", "", "benchmark the simulator per panel config and write results to this file")
	benchCmp   = flag.String("bench-compare", "", "compare this invocation's BENCH_sweep.json against the baseline at this path and print per-entry deltas")
	benchTol   = flag.Float64("bench-tolerance", 25, "percent a gated benchmark ratio may fall below the -bench-compare baseline before exiting nonzero; negative = warn only")
	streamWork = flag.String("stream-bench", "", "benchmark streamed capture + sampled simulation on this (huge) workload and record it in BENCH_sweep.json")
	cpuprof    = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprof    = flag.String("memprofile", "", "write a heap profile taken after the sweep to this file")
)

const benchWorkload = "compress" // the workload -bench-json times the panel on

func main() {
	flag.Parse()
	stop, err := startProfiling(*cpuprof, *memprof)
	if err == nil {
		err = run()
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cesweep:", err)
		os.Exit(1)
	}
}

// startProfiling arms the -cpuprofile/-memprofile flags; the returned
// function flushes the profiles after the sweep (heap profile after a
// final GC, so it shows live retention rather than garbage).
func startProfiling(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// runLog collects every run the default engine reports, for
// -metrics-json, -metrics-det and the sweep benchmark. The engine itself
// keeps no log.
type runLog struct {
	mu   sync.Mutex
	runs []ce.RunMetrics
}

var runs runLog

func (l *runLog) add(m ce.RunMetrics) {
	l.mu.Lock()
	l.runs = append(l.runs, m)
	l.mu.Unlock()
}

// all returns the runs so far, in completion order.
func (l *runLog) all() []ce.RunMetrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.runs)
}

// setupObservability wires the -v, -cache-dir and -metrics-json flags to
// the default sweep engine; the returned function finishes the report
// after the sweep.
func setupObservability() (func() error, error) {
	eng := ce.DefaultEngine
	if *cacheDir != "" {
		if err := eng.SetCacheDir(*cacheDir); err != nil {
			return nil, err
		}
	}
	if *traceDir != "" {
		if err := eng.SetTraceDir(*traceDir); err != nil {
			return nil, err
		}
	}
	if err := eng.SetPhaseSampling(*segments, *segPhases); err != nil {
		return nil, err
	}
	for _, path := range []string{*metrics, *metricsDet} {
		if path == "" {
			continue
		}
		// Fail on an unwritable path now, not after minutes of simulation.
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
		if err != nil {
			return nil, err
		}
		f.Close()
	}
	eng.SetObserver(func(m ce.RunMetrics) {
		runs.add(m)
		if !*verbose {
			return
		}
		if m.Cached {
			fmt.Fprintf(os.Stderr, "cesweep: %-28s %-12s cached (ipc %.2f)\n",
				m.Config, m.Workload, m.IPC)
			return
		}
		fmt.Fprintf(os.Stderr, "cesweep: %-28s %-12s %9d cycles  ipc %.2f  %6.0f ms  %5.1f Mcyc/s\n",
			m.Config, m.Workload, m.Cycles, m.IPC, m.WallSeconds*1000, m.MCyclesPerSec)
	})
	finish := func() error {
		cs := eng.CacheStats()
		if *verbose {
			fmt.Fprintf(os.Stderr,
				"cesweep: cache: %d lookups — %d hits, %d coalesced, %d disk hits, %d misses (%d uncacheable); %d simulator runs saved\n",
				cs.Lookups(), cs.Hits, cs.Coalesced, cs.DiskHits, cs.Misses, cs.Uncacheable, cs.Saved())
			ts := eng.TraceStats()
			fmt.Fprintf(os.Stderr,
				"cesweep: traces: %d captured, %d loaded from disk; %d replay runs; %d steps executed, %d replayed\n",
				ts.Captures, ts.DiskHits, ts.ReplayRuns, ts.StepsExecuted, ts.StepsReplayed)
			fmt.Fprintf(os.Stderr,
				"cesweep: trace bytes: %d on disk; %d records decoded; %d corrupt traces dropped\n",
				ts.TraceDiskBytes, ts.RecordsDecoded, ts.CorruptDropped)
		}
		if *metrics != "" {
			dump := struct {
				Runs  []ce.RunMetrics `json:"runs"`
				Cache ce.CacheStats   `json:"cache"`
				Trace ce.TraceStats   `json:"trace"`
			}{Runs: runs.all(), Cache: cs, Trace: eng.TraceStats()}
			data, err := canonjson.Marshal(dump)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*metrics, data, 0o644); err != nil {
				return err
			}
		}
		if *metricsDet != "" {
			if err := writeDetMetrics(*metricsDet, eng); err != nil {
				return err
			}
		}
		return nil
	}
	return finish, nil
}

// writeDetMetrics dumps only the deterministic slice of the run metrics:
// simulated results in a stable order, with host timings, allocation
// counts and drive-mode fields scrubbed, and the racy memory-hit versus
// coalesced split merged. Two invocations over the same selections —
// different machines, different parallelism, lockstep or replay drive —
// produce byte-identical files, which is what CI diffs to pin that
// replay changes how fast results are computed, never the results.
func writeDetMetrics(path string, eng *ce.Engine) error {
	type detRun struct {
		Config    string  `json:"config"`
		Workload  string  `json:"workload"`
		Cycles    int64   `json:"cycles"`
		Committed uint64  `json:"committed"`
		EmuSteps  uint64  `json:"emu_steps"`
		IPC       float64 `json:"ipc"`
	}
	all := runs.all()
	det := make([]detRun, len(all))
	for i, m := range all {
		det[i] = detRun{
			Config:    m.Config,
			Workload:  m.Workload,
			Cycles:    m.Cycles,
			Committed: m.Committed,
			EmuSteps:  m.EmuSteps,
			IPC:       m.IPC,
		}
	}
	sort.Slice(det, func(i, j int) bool {
		if det[i].Config != det[j].Config {
			return det[i].Config < det[j].Config
		}
		return det[i].Workload < det[j].Workload
	})
	cs := eng.CacheStats()
	dump := struct {
		Runs  []detRun `json:"runs"`
		Cache struct {
			Lookups     uint64 `json:"lookups"`
			Hits        uint64 `json:"hits"`
			DiskHits    uint64 `json:"disk_hits"`
			Misses      uint64 `json:"misses"`
			Uncacheable uint64 `json:"uncacheable"`
		} `json:"cache"`
	}{Runs: det}
	dump.Cache.Lookups = cs.Lookups()
	// Whether a duplicate pair found its twin finished (hit) or still in
	// flight (coalesced) depends on goroutine scheduling; the sum does not.
	dump.Cache.Hits = cs.Hits + cs.Coalesced
	dump.Cache.DiskHits = cs.DiskHits
	dump.Cache.Misses = cs.Misses
	dump.Cache.Uncacheable = cs.Uncacheable
	data, err := canonjson.Marshal(dump)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func emit(t *report.Table) {
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Println(t.String())
	}
}

func run() (err error) {
	finish, err := setupObservability()
	if err != nil {
		return err
	}
	// Flush observability output even when a sweep fails partway: the
	// metrics file and -v cache statistics then cover every run that did
	// complete, which is exactly what a failure post-mortem needs.
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()
	ran := false
	sweepStart := time.Now()
	// -json emits the canonical wire dump cesweepd serves for the same
	// selection, sharing ce.FigureJSON/ce.FrontierJSON with the daemon so
	// the two outputs are byte-identical (CI compares them).
	emitFigureJSON := func(n int) error {
		data, err := ce.FigureJSON(n)
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	}
	if *figure == 13 || *all {
		ran = true
		if *jsonOut {
			if err := emitFigureJSON(13); err != nil {
				return err
			}
		} else {
			cmp, err := ce.Figure13()
			if err != nil {
				return err
			}
			emit(cmp.IPCTable("Figure 13: IPC of the dependence-based microarchitecture"))
		}
	}
	if *figure == 15 || *all {
		ran = true
		if *jsonOut {
			if err := emitFigureJSON(15); err != nil {
				return err
			}
		} else {
			cmp, err := ce.Figure15()
			if err != nil {
				return err
			}
			emit(cmp.IPCTable("Figure 15: IPC of the clustered dependence-based microarchitecture"))
		}
	}
	if *figure == 17 || *all {
		ran = true
		if *jsonOut {
			if err := emitFigureJSON(17); err != nil {
				return err
			}
		} else {
			cmp, err := ce.Figure17()
			if err != nil {
				return err
			}
			emit(cmp.IPCTable("Figure 17 (top): IPC of clustered microarchitectures"))
			emit(cmp.BypassTable("Figure 17 (bottom): inter-cluster bypass frequency"))
		}
	}
	if *speedup || *all {
		ran = true
		sws, sum, err := ce.SpeedupEstimate()
		if err != nil {
			return err
		}
		emit(ce.SpeedupTable(sws, sum))
	}
	if *tradeoff || *all {
		ran = true
		tbl, err := ce.WindowTradeoff([]int{16, 32, 64, 128})
		if err != nil {
			return err
		}
		emit(tbl)
	}
	if *ablations || *all {
		ran = true
		for _, fn := range []func() (*report.Table, error){
			ce.SteeringAblation, ce.FIFOGeometry, ce.LatencySweep, ce.PredictorAblation,
			ce.AtomicityAblation, ce.FetchRealismAblation, ce.SelectionPolicyAblation,
			ce.StoreForwardingAblation, ce.SteeringDepthAblation,
		} {
			tbl, err := fn()
			if err != nil {
				return err
			}
			emit(tbl)
		}
	}
	if *frontier || *all {
		ran = true
		if *jsonOut {
			data, err := ce.FrontierJSON()
			if err != nil {
				return err
			}
			if _, err := os.Stdout.Write(data); err != nil {
				return err
			}
		} else {
			pts, err := ce.Frontier()
			if err != nil {
				return err
			}
			emit(ce.FrontierTable(pts))
		}
	}
	if *profiles || *all {
		ran = true
		tbl, err := ce.WorkloadProfiles()
		if err != nil {
			return err
		}
		emit(tbl)
	}
	if *micro || *all {
		ran = true
		tbl, err := ce.MicrobenchCharacterization()
		if err != nil {
			return err
		}
		emit(tbl)
	}
	sweepRan, sweepWall := ran, time.Since(sweepStart).Seconds()
	if *benchJSON != "" {
		ran = true
		res, err := ce.WriteBenchJSON(*benchJSON, benchWorkload)
		if err != nil {
			return err
		}
		fmt.Printf("Simulator performance on %s (written to %s):\n", benchWorkload, *benchJSON)
		for _, r := range res {
			fmt.Printf("  %-28s %9d cycles  %6.0f ms  %6.2f Mcycles/s  %.3f allocs/cycle\n",
				r.Config, r.Cycles, r.WallSeconds*1000, r.MCyclesPerSec, r.AllocsPerCycle)
		}
	}
	if (sweepRan && (*benchJSON != "" || *benchCmp != "")) || *streamWork != "" {
		// Record whole-sweep performance next to the per-configuration
		// benchmark: the sweep's own throughput (when one ran), the
		// phase-sampled benchmark on a workload long enough (millions of
		// instructions) for segmentation to pay, and the same benchmark
		// streamed on a huge workload when requested.
		ran = true
		sb := ce.SweepBench(ce.DefaultEngine, runs.all(), sweepWall)
		if sweepRan {
			seg, err := ce.StreamBench("compress.big", "", 16, 4)
			if err != nil {
				return err
			}
			sb.Segment = seg
		}
		if *streamWork != "" {
			st, err := ce.StreamBench(*streamWork, *traceDir, *segments, *segPhases)
			if err != nil {
				return err
			}
			sb.Stream = st
		}
		dir := "."
		if *benchJSON != "" {
			dir = filepath.Dir(*benchJSON)
		}
		path := filepath.Join(dir, "BENCH_sweep.json")
		// Load the comparison baseline before writing: the baseline and the
		// output are commonly the same committed file.
		var baseline ce.SweepBenchResult
		if *benchCmp != "" {
			baseline, err = ce.ReadSweepBenchJSON(*benchCmp)
			if err != nil {
				return err
			}
		}
		if err := ce.WriteSweepBenchJSON(path, sb); err != nil {
			return err
		}
		if sweepRan {
			fmt.Printf("Sweep performance (written to %s): %d sims in %.1f s (%.1f sims/s); %d steps executed, %d replayed\n",
				path, sb.Sims, sb.WallSeconds, sb.SimsPerSec,
				sb.Trace.StepsExecuted, sb.Trace.StepsReplayed)
		}
		if sb.Segment != nil {
			printSampledBench("Segment", path, sb.Segment)
		}
		if sb.Stream != nil {
			printSampledBench("Stream", path, sb.Stream)
		}
		if *benchCmp != "" {
			tol, gate := *benchTol, *benchTol >= 0
			if !gate {
				tol = -tol
			}
			deltas := ce.CompareSweepBench(baseline, sb, tol)
			fmt.Printf("Benchmark comparison against %s (gated * entries may fall up to %.0f%%):\n", *benchCmp, tol)
			regressed := false
			for _, d := range deltas {
				mark, status := " ", ""
				if d.Gated {
					mark = "*"
				}
				if d.Regressed {
					status, regressed = "  REGRESSED", true
				}
				fmt.Printf("  %s %-28s %10.3f -> %10.3f  (%+.1f%%)%s\n",
					mark, d.Name, d.Old, d.New, d.Pct(), status)
			}
			if regressed {
				if gate {
					return fmt.Errorf("benchmark regression: a gated ratio fell more than %.0f%% below %s", tol, *benchCmp)
				}
				fmt.Println("  (warn only: -bench-tolerance is negative)")
			}
		}
	}
	// An unrecognized figure number used to fall through to the
	// misleading "nothing selected" error below; reject it by name. The
	// check sits after the sweeps so that other selections on the same
	// command line still run (and their metrics still flush).
	switch *figure {
	case 0, 13, 15, 17:
	default:
		return fmt.Errorf("unknown figure %d (want 13, 15 or 17)", *figure)
	}
	if !ran {
		flag.Usage()
		return fmt.Errorf("nothing selected: pass -fig N, -speedup, -tradeoff, -ablations, -micro, -bench-json, -stream-bench or -all")
	}
	return nil
}

// printSampledBench prints one sampled-simulation benchmark record: the
// trace's footprint, then the exact and phase-sampled legs side by side.
func printSampledBench(name, path string, r *ce.StreamBenchResult) {
	fmt.Printf("%s benchmark on %s (written to %s): %d steps, %.1f MB trace on disk, capture %.1f s (peak RSS %.0f MB)\n",
		name, r.Workload, path, r.Steps, float64(r.TraceDiskBytes)/1e6,
		r.CaptureSeconds, float64(r.CapturePeakRSS)/1e6)
	fmt.Printf("  %-9s %10s %9s %9s %9s %9s\n", "mode", "insts", "wall s", "rss MB", "ipc", "err %")
	fmt.Printf("  %-9s %10d %9.2f %9.0f %9.3f %9s\n",
		"exact", r.Steps, r.ExactWallSeconds, float64(r.ExactPeakRSS)/1e6, r.ExactIPC, "—")
	fmt.Printf("  %-9s %10d %9.2f %9.0f %9.3f %+8.2f%%  (%d of %d segments, %.1fx)\n",
		"phase", r.SimulatedSteps, r.SampledWallSeconds, float64(r.SampledPeakRSS)/1e6, r.SampledIPC, r.IPCErrorPct,
		r.Phases, r.Segments, r.Speedup)
}
