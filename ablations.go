package ce

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/report"
	"repro/internal/stats"
)

// Ablation experiments beyond the paper's figures. Each quantifies one
// design choice that DESIGN.md calls out.

// SteeringAblation compares the Section 5.1 dependence-steering heuristic
// against degenerate policies on the unclustered FIFO machine: random FIFO
// choice and round-robin. It isolates the value of dependence awareness in
// the steering logic itself (the paper only ablates steering in the
// clustered case, Figure 17).
func SteeringAblation() (*report.Table, error) {
	mk := func(name string, policy core.SteerPolicy) Config {
		return table3(name, 1, 0, core.FIFOBankSpec(core.FIFOBankConfig{
			Name: name, Clusters: 1, FIFOsPerCluster: 8, Depth: 8, Policy: policy,
		}))
	}
	cfgs := []Config{
		BaselineConfig(),
		DependenceConfig(),
		mk("fifos-random-steer", core.SteerRandom),
	}
	cmp := &IPCComparison{}
	res, err := RunMatrix(cfgs, Workloads())
	if err != nil {
		return nil, err
	}
	cmp.Workloads, cmp.Configs, cmp.Results = Workloads(), cfgs, res
	return cmp.IPCTable("Steering ablation: dependence-aware versus random FIFO steering (unclustered)"), nil
}

// FIFOGeometry sweeps the number of FIFOs × depth at a fixed total
// capacity of 64 entries on the unclustered dependence-based machine.
func FIFOGeometry() (*report.Table, error) {
	ws := Workloads()
	tbl := &report.Table{
		Title:   "FIFO geometry sweep: FIFOs x depth at 64 total entries (unclustered)",
		Headers: []string{"geometry", "mean IPC", "min IPC", "max IPC"},
	}
	base, err := RunMatrix([]Config{BaselineConfig()}, ws)
	if err != nil {
		return nil, err
	}
	var ipcs []float64
	for wi := range ws {
		ipcs = append(ipcs, base[0][wi].IPC())
	}
	lo, hi := stats.MinMax(ipcs)
	tbl.AddRowf("64-entry window", stats.Mean(ipcs), lo, hi)
	for _, g := range []struct{ fifos, depth int }{{4, 16}, {8, 8}, {16, 4}, {32, 2}} {
		name := fmt.Sprintf("%d fifos x %d", g.fifos, g.depth)
		cfg := table3(name, 1, 0, core.FIFOBankSpec(core.FIFOBankConfig{
			Name: name, Clusters: 1, FIFOsPerCluster: g.fifos, Depth: g.depth,
		}))
		res, err := RunMatrix([]Config{cfg}, ws)
		if err != nil {
			return nil, err
		}
		ipcs = ipcs[:0]
		for wi := range ws {
			ipcs = append(ipcs, res[0][wi].IPC())
		}
		lo, hi := stats.MinMax(ipcs)
		tbl.AddRowf(name, stats.Mean(ipcs), lo, hi)
	}
	return tbl, nil
}

// LatencySweep varies the inter-cluster bypass latency of the 2×4-way
// clustered dependence-based machine (the paper fixes it at 2 cycles and
// predicts slower cross-cluster paths in future technologies).
func LatencySweep() (*report.Table, error) {
	ws := Workloads()
	tbl := &report.Table{
		Title:   "Inter-cluster bypass latency sweep (2x4-way dependence-based)",
		Headers: []string{"inter-cluster latency", "mean IPC", "mean degradation vs 1-cycle-uniform"},
	}
	base, err := RunMatrix([]Config{BaselineConfig()}, ws)
	if err != nil {
		return nil, err
	}
	var baseIPC []float64
	for wi := range ws {
		baseIPC = append(baseIPC, base[0][wi].IPC())
	}
	for extra := 0; extra <= 3; extra++ {
		cfg := ClusteredDependenceConfig()
		cfg.Name = fmt.Sprintf("2x4way-X%d", extra+1)
		cfg.InterClusterDelay = extra
		res, err := RunMatrix([]Config{cfg}, ws)
		if err != nil {
			return nil, err
		}
		var ipcs, degs []float64
		for wi := range ws {
			ipcs = append(ipcs, res[0][wi].IPC())
			degs = append(degs, 1-res[0][wi].IPC()/baseIPC[wi])
		}
		tbl.AddRowf(fmt.Sprintf("%d cycles", extra+1), stats.Mean(ipcs),
			fmt.Sprintf("%.1f%%", stats.Mean(degs)*100))
	}
	return tbl, nil
}

// PredictorAblation compares branch predictors on the baseline machine
// (Table 3 uses gshare; this quantifies how much the IPC results depend on
// that choice).
func PredictorAblation() (*report.Table, error) {
	ws := Workloads()
	tbl := &report.Table{
		Title:   "Branch predictor ablation (baseline 8-way window machine)",
		Headers: []string{"predictor", "mean IPC", "mean mispredict rate"},
	}
	for _, name := range []string{"perfect", "gshare", "bimodal", "taken"} {
		cfg, err := WithPredictor(BaselineConfig(), name)
		if err != nil {
			return nil, err
		}
		res, err := RunMatrix([]Config{cfg}, ws)
		if err != nil {
			return nil, err
		}
		var ipcs, rates []float64
		for wi := range ws {
			ipcs = append(ipcs, res[0][wi].IPC())
			rates = append(rates, res[0][wi].MispredictRate())
		}
		tbl.AddRowf(name, stats.Mean(ipcs), fmt.Sprintf("%.1f%%", stats.Mean(rates)*100))
	}
	return tbl, nil
}

// AtomicityAblation quantifies Section 4.5's pipelining argument: wakeup +
// select and single-cycle data bypassing "constitute atomic operations" —
// splitting them across pipeline stages (Figure 10), or removing the local
// bypass network, forfeits back-to-back execution of dependent
// instructions. Each row breaks one atomicity on the baseline machine.
func AtomicityAblation() (*report.Table, error) {
	ws := Workloads()
	tbl := &report.Table{
		Title:   "Atomicity ablation: pipelined window logic and incomplete bypassing (baseline 8-way)",
		Headers: []string{"machine", "mean IPC", "vs baseline"},
	}
	base := BaselineConfig()

	pipelined := BaselineConfig()
	pipelined.Name = "pipelined wakeup+select"
	pipelined.PipelinedWakeupSelect = true

	partial := BaselineConfig()
	partial.Name = "one-cycle-late bypass"
	partial.LocalBypassExtra = 1

	none := BaselineConfig()
	none.Name = "register-file-only operands"
	none.LocalBypassExtra = 2

	res, err := RunMatrix([]Config{base, pipelined, partial, none}, ws)
	if err != nil {
		return nil, err
	}
	var baseMean float64
	for ci, cfg := range []Config{base, pipelined, partial, none} {
		var ipcs []float64
		for wi := range ws {
			ipcs = append(ipcs, res[ci][wi].IPC())
		}
		m := stats.Mean(ipcs)
		if ci == 0 {
			baseMean = m
			tbl.AddRowf(cfg.Name, m, "-")
			continue
		}
		tbl.AddRowf(cfg.Name, m, fmt.Sprintf("%+.1f%%", (m/baseMean-1)*100))
	}
	return tbl, nil
}

// FetchRealismAblation measures how much the Table 3 idealizations at the
// front end (perfect I-cache, fetch across taken branches) contribute to
// the baseline IPC.
func FetchRealismAblation() (*report.Table, error) {
	ws := Workloads()
	tbl := &report.Table{
		Title:   "Front-end realism ablation (baseline 8-way)",
		Headers: []string{"front end", "mean IPC", "vs ideal"},
	}
	ideal := BaselineConfig()
	ideal.Name = "ideal (Table 3)"

	breakTaken := BaselineConfig()
	breakTaken.Name = "fetch breaks at taken branches"
	breakTaken.FetchBreakOnTaken = true

	icache := BaselineConfig()
	icache.Name = "16KB 2-way I-cache"
	ic := cache.Config{SizeBytes: 16 << 10, Ways: 2, LineBytes: 32, HitCycles: 1, MissCycles: 6}
	icache.ICache = &ic

	both := BaselineConfig()
	both.Name = "I-cache + fetch break"
	ic2 := ic
	both.ICache = &ic2
	both.FetchBreakOnTaken = true

	cfgs := []Config{ideal, breakTaken, icache, both}
	res, err := RunMatrix(cfgs, ws)
	if err != nil {
		return nil, err
	}
	var baseMean float64
	for ci, cfg := range cfgs {
		var ipcs []float64
		for wi := range ws {
			ipcs = append(ipcs, res[ci][wi].IPC())
		}
		m := stats.Mean(ipcs)
		if ci == 0 {
			baseMean = m
			tbl.AddRowf(cfg.Name, m, "-")
			continue
		}
		tbl.AddRowf(cfg.Name, m, fmt.Sprintf("%+.1f%%", (m/baseMean-1)*100))
	}
	return tbl, nil
}

// SelectionPolicyAblation tests Butler & Patt's observation (cited in
// Section 4.3) that overall performance is largely independent of the
// selection policy: age-ordered versus random selection from the ready
// pool.
func SelectionPolicyAblation() (*report.Table, error) {
	ws := Workloads()
	tbl := &report.Table{
		Title:   "Selection policy ablation (64-entry window, 8-way)",
		Headers: []string{"selection policy", "mean IPC"},
	}
	age := BaselineConfig()
	age.Name = "oldest-first (position)"
	random := table3("random-select", 1, 0, core.RandomSelectSpec(64))
	random.Name = "random"
	res, err := RunMatrix([]Config{age, random}, ws)
	if err != nil {
		return nil, err
	}
	for ci, cfg := range []Config{age, random} {
		var ipcs []float64
		for wi := range ws {
			ipcs = append(ipcs, res[ci][wi].IPC())
		}
		tbl.AddRowf(cfg.Name, stats.Mean(ipcs))
	}
	return tbl, nil
}

// StoreForwardingAblation measures the timing value of store-to-load
// forwarding on the baseline machine.
func StoreForwardingAblation() (*report.Table, error) {
	ws := Workloads()
	tbl := &report.Table{
		Title:   "Store-to-load forwarding ablation (baseline 8-way)",
		Headers: []string{"machine", "mean IPC", "forwarded loads"},
	}
	off := BaselineConfig()
	off.Name = "no forwarding"
	on := BaselineConfig()
	on.Name = "store-to-load forwarding"
	on.StoreForwarding = true
	res, err := RunMatrix([]Config{off, on}, ws)
	if err != nil {
		return nil, err
	}
	for ci, cfg := range []Config{off, on} {
		var ipcs []float64
		var fwd uint64
		for wi := range ws {
			ipcs = append(ipcs, res[ci][wi].IPC())
			fwd += res[ci][wi].ForwardedLoads
		}
		tbl.AddRowf(cfg.Name, stats.Mean(ipcs), fwd)
	}
	return tbl, nil
}

// MicrobenchCharacterization runs the five mechanism-isolating
// microbenchmarks on the main machine organizations: each row shows one
// bottleneck (serial chain, abundant ILP, load-to-load chains, hard
// branches, cache misses) and how each organization responds.
func MicrobenchCharacterization() (*report.Table, error) {
	micros := []string{"micro.chain", "micro.parallel", "micro.chase", "micro.branchy", "micro.stream"}
	cfgs := []Config{BaselineConfig(), DependenceConfig(), ClusteredDependenceConfig(), RandomSteerConfig()}
	res, err := RunMatrix(cfgs, micros)
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{
		Title:   "Microbenchmark characterization (IPC)",
		Headers: []string{"microbenchmark"},
	}
	for _, c := range cfgs {
		tbl.Headers = append(tbl.Headers, c.Name)
	}
	for wi, w := range micros {
		row := []interface{}{w}
		for ci := range cfgs {
			row = append(row, res[ci][wi].IPC())
		}
		tbl.AddRowf(row...)
	}
	return tbl, nil
}

// SteeringDepthAblation measures Section 5.3's caveat about complex
// steering heuristics: "a new pipestage can be introduced — at the cost of
// an increase in branch mispredict penalty." The dependence-based machine
// is run with progressively deeper front ends.
func SteeringDepthAblation() (*report.Table, error) {
	ws := Workloads()
	tbl := &report.Table{
		Title:   "Steering pipeline depth ablation (dependence-based 8-way)",
		Headers: []string{"front-end depth", "mean IPC", "vs 2-stage"},
	}
	var baseMean float64
	for depth := 2; depth <= 5; depth++ {
		cfg := DependenceConfig()
		cfg.Name = fmt.Sprintf("frontend-%d", depth)
		cfg.FrontEndDepth = depth
		res, err := RunMatrix([]Config{cfg}, ws)
		if err != nil {
			return nil, err
		}
		var ipcs []float64
		for wi := range ws {
			ipcs = append(ipcs, res[0][wi].IPC())
		}
		m := stats.Mean(ipcs)
		if depth == 2 {
			baseMean = m
			tbl.AddRowf(fmt.Sprintf("%d stages", depth), m, "-")
			continue
		}
		tbl.AddRowf(fmt.Sprintf("%d stages (steer pipestage +%d)", depth, depth-2), m,
			fmt.Sprintf("%+.1f%%", (m/baseMean-1)*100))
	}
	return tbl, nil
}

// WorkloadProfiles characterizes every workload (including extensions)
// with the dynamic profiler: instruction mix, branch density, dependence
// distances and the dataflow-limit ILP — the properties that justify the
// SPEC95-like substitution (see DESIGN.md).
func WorkloadProfiles() (*report.Table, error) {
	tbl := &report.Table{
		Title: "Workload profiles",
		Headers: []string{"workload", "insts", "loads", "stores", "branches",
			"taken", "dep P50", "win-64 cov", "dataflow ILP", "footprint"},
	}
	for _, name := range WorkloadsExtended() {
		w, err := prog.ByName(name)
		if err != nil {
			return nil, err
		}
		p, err := w.Program()
		if err != nil {
			return nil, err
		}
		r, err := profile.Profile(p, 50_000_000)
		if err != nil {
			return nil, err
		}
		tbl.AddRowf(name, r.Instructions,
			fmt.Sprintf("%.0f%%", r.Mix[isa.ClassLoad]*100),
			fmt.Sprintf("%.0f%%", r.Mix[isa.ClassStore]*100),
			fmt.Sprintf("%.0f%%", r.Mix[isa.ClassBranch]*100),
			fmt.Sprintf("%.0f%%", r.TakenRate*100),
			r.DepDistance.Percentile(50),
			fmt.Sprintf("%.0f%%", r.WindowCoverage(64)*100),
			fmt.Sprintf("%.1f", r.DataflowILP),
			fmt.Sprintf("%dB", r.FootprintBytes))
	}
	return tbl, nil
}
