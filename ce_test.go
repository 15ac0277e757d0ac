package ce

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vlsi"
)

func TestWorkloadsRegistry(t *testing.T) {
	ws := Workloads()
	want := []string{"compress", "gcc", "go", "li", "m88ksim", "perl", "vortex"}
	if len(ws) != len(want) {
		t.Fatalf("workloads = %v, want %v", ws, want)
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Fatalf("workloads = %v, want %v", ws, want)
		}
	}
	for _, w := range ws {
		desc, err := WorkloadDescription(w)
		if err != nil || desc == "" {
			t.Errorf("WorkloadDescription(%q) = %q, %v", w, desc, err)
		}
	}
	if _, err := WorkloadDescription("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{
		BaselineConfig(), DependenceConfig(), ClusteredDependenceConfig(),
		WindowsDispatchConfig(), ExecSteeredConfig(), RandomSteerConfig(),
		FourWayConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		// Stock configurations are spec-built, so they are fingerprintable
		// and eligible for run memoization.
		if _, ok := cfg.Key(); !ok {
			t.Errorf("%s: no structural fingerprint", cfg.Name)
		}
		// Scheduler cluster count must match the config.
		if got := cfg.Scheduler.Build(core.Bounds{InFlight: cfg.MaxInFlight, PhysRegs: cfg.PhysRegs}).Clusters(); got != cfg.Clusters {
			t.Errorf("%s: scheduler clusters %d != config %d", cfg.Name, got, cfg.Clusters)
		}
	}
}

func TestRunBaselineSanity(t *testing.T) {
	st, err := Run(BaselineConfig(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed < 100_000 {
		t.Errorf("committed %d, want ≥100k", st.Committed)
	}
	if ipc := st.IPC(); ipc < 1.2 || ipc > 6 {
		t.Errorf("baseline compress IPC = %.2f, want a plausible 1.2–6", ipc)
	}
	if st.Workload != "compress" {
		t.Errorf("stats workload = %q", st.Workload)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(BaselineConfig(), "nonesuch"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestWithPredictor(t *testing.T) {
	for _, name := range []string{"gshare", "bimodal", "taken", "perfect"} {
		cfg, err := WithPredictor(BaselineConfig(), name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasSuffix(cfg.Name, "+"+name) {
			t.Errorf("config name %q missing predictor suffix", cfg.Name)
		}
	}
	if _, err := WithPredictor(BaselineConfig(), "oracle9000"); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// TestFigure13Band asserts the paper's headline Figure 13 result: the
// dependence-based machine extracts nearly the same parallelism as the
// 64-entry window (the paper reports ≤5% degradation for five of seven
// benchmarks and 8% worst case).
func TestFigure13Band(t *testing.T) {
	cmp, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure13Band(t, cmp)
}

// checkFigure13Band asserts TestFigure13Band's claims on one rendering
// of Figure 13.
func checkFigure13Band(t *testing.T, cmp *IPCComparison) {
	t.Helper()
	for wi, w := range cmp.Workloads {
		base := cmp.Results[0][wi].IPC()
		dep := cmp.Results[1][wi].IPC()
		deg := 1 - dep/base
		if deg > 0.10 {
			t.Errorf("%s: dependence-based degradation %.1f%%, want ≤10%%", w, deg*100)
		}
		if deg < -0.02 {
			t.Errorf("%s: dependence-based beat the window by %.1f%% — suspicious", w, -deg*100)
		}
		if base < 1.2 || base > 6 {
			t.Errorf("%s: baseline IPC %.2f outside plausible band", w, base)
		}
	}
}

// TestFigure15Band asserts the clustered result: the 2×4-way machine pays
// for its 2-cycle inter-cluster bypasses but stays within a modest IPC
// deficit (the paper reports up to ≈12%; our kernels run a little hotter,
// see EXPERIMENTS.md).
func TestFigure15Band(t *testing.T) {
	cmp, err := Figure15()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure15Band(t, cmp)
}

// checkFigure15Band asserts TestFigure15Band's claims on one rendering
// of Figure 15.
func checkFigure15Band(t *testing.T, cmp *IPCComparison) {
	t.Helper()
	for wi, w := range cmp.Workloads {
		base := cmp.Results[0][wi].IPC()
		dep := cmp.Results[1][wi].IPC()
		deg := 1 - dep/base
		if deg < 0 {
			t.Errorf("%s: clustered machine beat the uniform-bypass window (%.1f%%)", w, -deg*100)
		}
		if deg > 0.20 {
			t.Errorf("%s: clustered degradation %.1f%%, want ≤20%%", w, deg*100)
		}
		if f := cmp.Results[1][wi].InterClusterFrequency(); f <= 0 || f > 0.30 {
			t.Errorf("%s: inter-cluster bypass frequency %.1f%% outside (0, 30%%]", w, f*100)
		}
	}
}

// TestSampledFigureBands gates phase sampling on the paper's own
// claims: Figures 13, 15 and 17 rendered under SetPhaseSampling(16, 4)
// must pass the same checks as exact replay, and every degradation and
// inter-cluster frequency the figures compare must lie within one
// percentage point of the exact one.
func TestSampledFigureBands(t *testing.T) {
	for _, fig := range []struct {
		name    string
		run     func(*Engine) (*IPCComparison, error)
		check   func(*testing.T, *IPCComparison)
		compare func(t *testing.T, exact, sampled *IPCComparison)
	}{
		{"figure13", (*Engine).Figure13, checkFigure13Band, compareDegradations},
		{"figure15", (*Engine).Figure15, func(t *testing.T, cmp *IPCComparison) {
			checkFigure15Band(t, cmp)
			checkSampledSpeedup(t, cmp)
		}, compareDegradations},
		{"figure17", (*Engine).Figure17, checkFigure17Ordering, compareFigure17Means},
	} {
		t.Run(fig.name, func(t *testing.T) {
			if testing.Short() && fig.name == "figure17" {
				t.Skip("five-config sweep in -short mode")
			}
			exact, err := fig.run(DefaultEngine)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine()
			if err := eng.SetPhaseSampling(16, 4); err != nil {
				t.Fatal(err)
			}
			sampled, err := fig.run(eng)
			if err != nil {
				t.Fatal(err)
			}
			fig.check(t, sampled)
			fig.compare(t, exact, sampled)
		})
	}
}

// compareDegradations bounds every workload's sampled degradation of
// configuration 1 against configuration 0 to one point of exact.
func compareDegradations(t *testing.T, exact, sampled *IPCComparison) {
	t.Helper()
	want, got := exact.Degradation(1), sampled.Degradation(1)
	for wi, w := range exact.Workloads {
		t.Logf("%s: degradation exact %.2f%%, sampled %.2f%%", w, want[wi]*100, got[wi]*100)
		if d := math.Abs(got[wi] - want[wi]); d > 0.01 {
			t.Errorf("%s: sampled degradation %.2f%% is %.2f points from exact %.2f%%, want ≤ 1",
				w, got[wi]*100, d*100, want[wi]*100)
		}
	}
}

// compareFigure17Means bounds each organization's mean IPC degradation
// against the ideal machine, and its mean inter-cluster frequency, to
// one point of exact.
func compareFigure17Means(t *testing.T, exact, sampled *IPCComparison) {
	t.Helper()
	for ci, cfg := range exact.Configs {
		for _, m := range []struct {
			what        string
			exact, samp float64
		}{
			{"mean degradation", fig17Degradation(exact, ci), fig17Degradation(sampled, ci)},
			{"mean inter-cluster frequency", meanOver(exact, ci, Stats.InterClusterFrequency), meanOver(sampled, ci, Stats.InterClusterFrequency)},
		} {
			t.Logf("%s: %s exact %.2f%%, sampled %.2f%%", cfg.Name, m.what, m.exact*100, m.samp*100)
			if d := math.Abs(m.samp - m.exact); d > 0.01 {
				t.Errorf("%s: sampled %s %.2f%% is %.2f points from exact %.2f%%, want ≤ 1",
					cfg.Name, m.what, m.samp*100, d*100, m.exact*100)
			}
		}
	}
}

// checkSampledSpeedup asserts TestSpeedupEstimate's claims on one
// rendering of Figure 15: IPCDep/IPCWindow × ClockRatio(0.18 µm) is a
// net win on every workload, and its mean lies in [1.05, 1.25].
func checkSampledSpeedup(t *testing.T, cmp *IPCComparison) {
	t.Helper()
	ratio, err := ClockRatio(vlsi.Tech018)
	if err != nil {
		t.Fatal(err)
	}
	nets := make([]float64, len(cmp.Workloads))
	for wi := range cmp.Workloads {
		nets[wi] = cmp.Results[1][wi].IPC() / cmp.Results[0][wi].IPC() * ratio
	}
	checkNetSpeedups(t, cmp.Workloads, nets)
}

// checkNetSpeedups asserts the paper's bottom line on per-workload net
// speedups: each above 1, the arithmetic mean in [1.05, 1.25].
func checkNetSpeedups(t *testing.T, workloads []string, nets []float64) {
	t.Helper()
	for wi, net := range nets {
		if net <= 1.0 {
			t.Errorf("%s: net speedup %.3f, want >1 (clock advantage should win)", workloads[wi], net)
		}
	}
	mean := stats.Mean(nets)
	t.Logf("net speedups %.3f, mean %.3f", nets, mean)
	if mean < 1.05 || mean > 1.25 {
		t.Errorf("mean net speedup %.3f, want in [1.05, 1.25] (paper: 1.16)", mean)
	}
}

// Figure 17's configurations, in Figure17's order.
const (
	fig17Ideal = iota
	fig17FIFODispatch
	fig17WinDispatch
	fig17ExecSteer
	fig17Random
)

// meanOver averages f over configuration ci's workloads.
func meanOver(cmp *IPCComparison, ci int, f func(Stats) float64) float64 {
	var s float64
	for wi := range cmp.Workloads {
		s += f(cmp.Results[ci][wi])
	}
	return s / float64(len(cmp.Workloads))
}

// fig17Degradation is configuration ci's mean-IPC loss against the ideal
// single-cluster machine.
func fig17Degradation(cmp *IPCComparison, ci int) float64 {
	return 1 - meanOver(cmp, ci, Stats.IPC)/meanOver(cmp, fig17Ideal, Stats.IPC)
}

// TestFigure17Ordering asserts the design-space ordering of Figure 17:
// random steering is clearly worst, execution-driven steering is nearly
// ideal, and dispatch-driven steering sits in between; inter-cluster
// bypass frequency anti-correlates with IPC.
func TestFigure17Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("five-config sweep in -short mode")
	}
	cmp, err := Figure17()
	if err != nil {
		t.Fatal(err)
	}
	checkFigure17Ordering(t, cmp)
}

// checkFigure17Ordering asserts TestFigure17Ordering's claims on one
// rendering of Figure 17.
func checkFigure17Ordering(t *testing.T, cmp *IPCComparison) {
	t.Helper()
	ipc := func(ci int) float64 { return meanOver(cmp, ci, Stats.IPC) }
	byp := func(ci int) float64 { return meanOver(cmp, ci, Stats.InterClusterFrequency) }

	if !(ipc(fig17Ideal) >= ipc(fig17ExecSteer) && ipc(fig17ExecSteer) >= ipc(fig17FIFODispatch) && ipc(fig17FIFODispatch) > ipc(fig17Random)) {
		t.Errorf("IPC ordering violated: ideal %.2f, exec %.2f, fifo %.2f, random %.2f",
			ipc(fig17Ideal), ipc(fig17ExecSteer), ipc(fig17FIFODispatch), ipc(fig17Random))
	}
	if ipc(fig17WinDispatch) <= ipc(fig17Random) {
		t.Errorf("windows-dispatch (%.2f) not better than random (%.2f)", ipc(fig17WinDispatch), ipc(fig17Random))
	}
	// Paper: random steering degrades 17–26%; ours lands in that band or a
	// little above.
	if deg := fig17Degradation(cmp, fig17Random); deg < 0.12 || deg > 0.35 {
		t.Errorf("random-steering mean degradation %.1f%%, want ≈17–26%%", deg*100)
	}
	// Paper: execution-driven steering within ≈6% of ideal.
	if deg := fig17Degradation(cmp, fig17ExecSteer); deg > 0.08 {
		t.Errorf("execution-driven steering degradation %.1f%%, want ≤8%%", deg*100)
	}
	// Inter-cluster bypass frequency: random far above every other
	// organization, ideal exactly zero.
	if byp(fig17Ideal) != 0 {
		t.Errorf("ideal machine reported %.2f inter-cluster frequency", byp(fig17Ideal))
	}
	for _, ci := range []int{fig17FIFODispatch, fig17WinDispatch, fig17ExecSteer} {
		if byp(fig17Random) <= byp(ci) {
			t.Errorf("random bypass frequency %.2f not above config %d's %.2f", byp(fig17Random), ci, byp(ci))
		}
	}
}

// TestSpeedupEstimate asserts the paper's bottom line: combining the
// clustered machine's IPC with its clock advantage yields a net win on
// every benchmark (the paper reports 10–22%, average 16%).
func TestSpeedupEstimate(t *testing.T) {
	sws, sum, err := SpeedupEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if len(sws) != len(Workloads()) {
		t.Fatalf("%d speedups for %d workloads", len(sws), len(Workloads()))
	}
	nets := make([]float64, len(sws))
	workloads := make([]string, len(sws))
	for i, s := range sws {
		nets[i], workloads[i] = s.NetSpeedup, s.Workload
		if s.ClockRatio < 1.20 || s.ClockRatio > 1.30 {
			t.Errorf("%s: clock ratio %.3f, want ≈1.25", s.Workload, s.ClockRatio)
		}
	}
	checkNetSpeedups(t, workloads, nets)
	if sum.Arith != stats.Mean(nets) {
		t.Errorf("summary mean %.3f, want the mean of the per-workload speedups %.3f", sum.Arith, stats.Mean(nets))
	}
	// The geometric mean of positive ratios is bounded by the arithmetic
	// mean (AM–GM) and must stay a net win.
	if sum.Geo <= 1.0 || sum.Geo > sum.Arith {
		t.Errorf("geomean net speedup %.3f, want in (1, %.3f]", sum.Geo, sum.Arith)
	}
	tbl := SpeedupTable(sws, sum)
	if len(tbl.Rows) != len(sws)+2 {
		t.Errorf("speedup table has %d rows, want %d", len(tbl.Rows), len(sws)+2)
	}
}

func TestDelayTables(t *testing.T) {
	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(f3.Rows) != 9 {
		t.Errorf("Figure3 rows = %d, want 9", len(f3.Rows))
	}
	f5, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Rows) != 8 {
		t.Errorf("Figure5 rows = %d, want 8", len(f5.Rows))
	}
	f6, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 3 {
		t.Errorf("Figure6 rows = %d, want 3", len(f6.Rows))
	}
	f8, err := Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 12 {
		t.Errorf("Figure8 rows = %d, want 12", len(f8.Rows))
	}
	t1, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(t1.Rows) != 2 {
		t.Errorf("Table1 rows = %d, want 2", len(t1.Rows))
	}
	t2, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 6 {
		t.Errorf("Table2 rows = %d, want 6", len(t2.Rows))
	}
	// The Table 2 render must contain the paper's anchor values (the ones
	// the calibration hits exactly; the rest are asserted numerically to
	// ±0.5% in the delaymodel tests).
	s := t2.String()
	for _, anchor := range []string{"1577.9", "2903.7", "578.0", "427.9", "1248.4"} {
		if !strings.Contains(s, anchor) {
			t.Errorf("Table2 output missing anchor %s:\n%s", anchor, s)
		}
	}
	t4, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 2 {
		t.Errorf("Table4 rows = %d, want 2", len(t4.Rows))
	}
}

func TestClockRatioAcrossTechnologies(t *testing.T) {
	for _, tech := range Technologies() {
		r, err := ClockRatio(tech)
		if err != nil {
			t.Fatal(err)
		}
		if r <= 1.0 || r > 1.5 {
			t.Errorf("%s: clock ratio %.3f outside (1, 1.5]", tech.Name, r)
		}
	}
}

func TestRunMatrixShapeAndErrors(t *testing.T) {
	res, err := RunMatrix([]Config{BaselineConfig()}, []string{"go"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0]) != 1 || res[0][0].Committed == 0 {
		t.Errorf("matrix shape/content wrong: %+v", res)
	}
	if _, err := RunMatrix([]Config{BaselineConfig()}, []string{"bogus"}); err == nil {
		t.Error("RunMatrix with unknown workload succeeded")
	}
}

func TestExtendedWorkloads(t *testing.T) {
	ext := WorkloadsExtended()
	if len(ext) <= len(Workloads()) {
		t.Fatalf("extended = %v", ext)
	}
	st, err := Run(BaselineConfig(), "ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	// ijpeg is the ILP-rich member: it should run at high IPC.
	if st.IPC() < 2.5 {
		t.Errorf("ijpeg IPC = %.2f, want ≥2.5 (ILP-rich kernel)", st.IPC())
	}
}

func TestAtomicityAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("four-config sweep in -short mode")
	}
	tbl, err := AtomicityAblation()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// Column 1 holds mean IPC; baseline first, then strictly-worse rows.
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
			t.Fatalf("bad IPC cell %q", s)
		}
		return v
	}
	base := parse(tbl.Rows[0][1])
	pipelined := parse(tbl.Rows[1][1])
	partial := parse(tbl.Rows[2][1])
	none := parse(tbl.Rows[3][1])
	if !(pipelined < base && partial < base && none < partial) {
		t.Errorf("atomicity ordering violated: base %.2f, pipelined %.2f, partial %.2f, none %.2f",
			base, pipelined, partial, none)
	}
	// Section 4.5's point: breaking the atomic wakeup+select loop is
	// expensive — a double-digit IPC loss.
	if pipelined > base*0.92 {
		t.Errorf("pipelined wakeup+select only cost %.1f%%, expected ≥8%%", (1-pipelined/base)*100)
	}
}

func TestSelectionPolicyAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("two-config sweep in -short mode")
	}
	tbl, err := SelectionPolicyAblation()
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
			t.Fatalf("bad IPC cell %q", s)
		}
		return v
	}
	age := parse(tbl.Rows[0][1])
	random := parse(tbl.Rows[1][1])
	// Butler & Patt: performance largely independent of selection policy.
	if diff := (age - random) / age; diff > 0.05 || diff < -0.05 {
		t.Errorf("selection policy changed mean IPC by %.1f%%, expected ≤5%% (Butler & Patt)", diff*100)
	}
}

func TestFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("11-config sweep in -short mode")
	}
	pts, err := Frontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 11 {
		t.Fatalf("frontier has %d points", len(pts))
	}
	byName := map[string]FrontierPoint{}
	for _, p := range pts {
		byName[p.Name] = p
		if p.BIPS <= 0 || p.MeanIPC <= 0 || p.ClockPs <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Name, p)
		}
	}
	// The paper's thesis: every 8-way window machine is bypass-bound and
	// frontier-dominated by the clustered dependence-based machine.
	clustered := byName["2x4way-fifos-dispatch (conservative clk)"]
	for _, name := range []string{"window-8way-16entries", "window-8way-32entries", "window-8way-64entries"} {
		if byName[name].BIPS >= clustered.BIPS {
			t.Errorf("%s (%.2f BIPS) not dominated by clustered dependence-based (%.2f BIPS)",
				name, byName[name].BIPS, clustered.BIPS)
		}
	}
	// With the paper's optimistic (rename-limited) clock the clustered
	// machine tops the whole frontier.
	if pts[0].Name != "2x4way-fifos-dispatch (optimistic clk)" {
		t.Errorf("frontier rank 1 = %s, want the optimistic clustered dependence-based point", pts[0].Name)
	}
	// Sorted best-first.
	for i := 1; i < len(pts); i++ {
		if pts[i].BIPS > pts[i-1].BIPS {
			t.Error("frontier not sorted by BIPS")
		}
	}
}
