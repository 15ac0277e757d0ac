package ce

// The benchmark harness: one testing.B benchmark per table and figure in
// the paper's evaluation. Each benchmark regenerates its experiment and
// reports the headline numbers as custom metrics (run with -v to also see
// the full tables; the cmd/cedelay and cmd/cesweep tools print the same
// rows directly).

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/delaymodel"
	"repro/internal/emu"
	"repro/internal/errclass"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/vlsi"
)

func BenchmarkFig3RenameDelay(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		for _, tech := range vlsi.Technologies() {
			for _, iw := range []int{2, 4, 8} {
				d, err := delaymodel.Rename(tech, iw)
				if err != nil {
					b.Fatal(err)
				}
				total = d.Total()
			}
		}
	}
	tbl, err := Figure3()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tbl)
	b.ReportMetric(total, "ps/rename-8way-0.18um")
}

func BenchmarkFig5WakeupDelay(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for ws := 8; ws <= 64; ws += 8 {
			for _, iw := range []int{2, 4, 8} {
				d, err := delaymodel.Wakeup(vlsi.Tech018, iw, ws)
				if err != nil {
					b.Fatal(err)
				}
				last = d.Total()
			}
		}
	}
	tbl, err := Figure5()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tbl)
	b.ReportMetric(last, "ps/wakeup-8way-64")
}

func BenchmarkFig6WakeupScaling(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		for _, tech := range vlsi.Technologies() {
			d, err := delaymodel.Wakeup(tech, 8, 64)
			if err != nil {
				b.Fatal(err)
			}
			frac = (d.TagDrive + d.TagMatch) / d.Total()
		}
	}
	tbl, err := Figure6()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tbl)
	b.ReportMetric(frac*100, "%broadcast-0.18um")
}

func BenchmarkFig8SelectDelay(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		for _, tech := range vlsi.Technologies() {
			for _, ws := range []int{16, 32, 64, 128} {
				d, err := delaymodel.Select(tech, ws)
				if err != nil {
					b.Fatal(err)
				}
				last = d.Total()
			}
		}
	}
	tbl, err := Figure8()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tbl)
	b.ReportMetric(last, "ps/select-128-0.18um")
}

func BenchmarkTable1BypassDelay(b *testing.B) {
	var d8 float64
	for i := 0; i < b.N; i++ {
		d4, err := delaymodel.Bypass(vlsi.Tech018, 4)
		if err != nil {
			b.Fatal(err)
		}
		d8v, err := delaymodel.Bypass(vlsi.Tech018, 8)
		if err != nil {
			b.Fatal(err)
		}
		_ = d4
		d8 = d8v.Delay
	}
	tbl, err := Table1()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tbl)
	b.ReportMetric(d8, "ps/bypass-8way")
}

func BenchmarkTable2Overall(b *testing.B) {
	var crit float64
	for i := 0; i < b.N; i++ {
		for _, tech := range vlsi.Technologies() {
			for _, pt := range []struct{ iw, ws int }{{4, 32}, {8, 64}} {
				o, err := delaymodel.Analyze(tech, pt.iw, pt.ws)
				if err != nil {
					b.Fatal(err)
				}
				crit = o.CriticalPath()
			}
		}
	}
	tbl, err := Table2()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tbl)
	b.ReportMetric(crit, "ps/critical-8way-0.18um")
}

func BenchmarkTable4ReservationTable(b *testing.B) {
	var d float64
	for i := 0; i < b.N; i++ {
		var err error
		d, err = delaymodel.ReservationTable(vlsi.Tech018, 8, 128)
		if err != nil {
			b.Fatal(err)
		}
	}
	tbl, err := Table4()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", tbl)
	b.ReportMetric(d, "ps/restable-8way")
}

// simFigure runs an IPC-comparison figure once per b.N iteration and
// reports the mean IPC of each configuration.
func simFigure(b *testing.B, fn func() (*IPCComparison, error), title string) {
	b.Helper()
	var cmp *IPCComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = fn()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", cmp.IPCTable(title))
	var committed uint64
	for ci := range cmp.Configs {
		var mean float64
		for wi := range cmp.Workloads {
			mean += cmp.Results[ci][wi].IPC()
			committed += cmp.Results[ci][wi].Committed
		}
		b.ReportMetric(mean/float64(len(cmp.Workloads)), "IPC/"+cmp.Configs[ci].Name)
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "simulated-insts/s")
}

func BenchmarkFig13DependenceIPC(b *testing.B) {
	simFigure(b, Figure13, "Figure 13")
}

func BenchmarkFig15ClusteredIPC(b *testing.B) {
	simFigure(b, Figure15, "Figure 15")
}

func BenchmarkFig17ClusterDesignSpace(b *testing.B) {
	var cmp *IPCComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = Figure17()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", cmp.IPCTable("Figure 17 (top)"))
	b.Logf("\n%s", cmp.BypassTable("Figure 17 (bottom)"))
	for ci := range cmp.Configs {
		var ipc, byp float64
		for wi := range cmp.Workloads {
			ipc += cmp.Results[ci][wi].IPC()
			byp += cmp.Results[ci][wi].InterClusterFrequency()
		}
		n := float64(len(cmp.Workloads))
		b.ReportMetric(ipc/n, "IPC/"+cmp.Configs[ci].Name)
		b.ReportMetric(byp/n*100, "%xbypass/"+cmp.Configs[ci].Name)
	}
}

func BenchmarkSpeedupEstimate(b *testing.B) {
	var sum SpeedupSummary
	for i := 0; i < b.N; i++ {
		var err error
		_, sum, err = SpeedupEstimate()
		if err != nil {
			b.Fatal(err)
		}
	}
	sws, s, err := SpeedupEstimate()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", SpeedupTable(sws, s))
	b.ReportMetric(sum.Arith, "net-speedup")
}

// BenchmarkSimulatorThroughput measures the raw speed of the timing
// simulator itself (simulated instructions per wall-clock second) on the
// baseline configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, err := prog.ByName("compress")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	var committed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := pipeline.New(BaselineConfig(), p)
		if err != nil {
			b.Fatal(err)
		}
		st, err := sim.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		committed += st.Committed
	}
	b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "simulated-insts/s")
}

// BenchmarkEmulatorThroughput measures the functional emulator alone.
func BenchmarkEmulatorThroughput(b *testing.B) {
	w, err := prog.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		b.Fatal(err)
	}
	var executed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := emu.New(p)
		for !m.Halted() {
			if _, err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
		executed += m.Executed
	}
	b.ReportMetric(float64(executed)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkFrontier runs the full design-space ranking (extension).
func BenchmarkFrontier(b *testing.B) {
	var pts []FrontierPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = Frontier()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", FrontierTable(pts))
	if len(pts) > 0 {
		b.ReportMetric(pts[0].BIPS, "best-BIPS")
	}
}

func TestSweepBenchJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	want := SweepBenchResult{
		WallSeconds: 1.5,
		Sims:        42,
		SimsPerSec:  28,
		Segment: &StreamBenchResult{
			Config: "baseline-8way-64win", Workload: "compress.big",
			Segments: 16, Phases: 4, Speedup: 3.5,
		},
	}
	if err := WriteSweepBenchJSON(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSweepBenchJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sims != want.Sims || got.Segment == nil || *got.Segment != *want.Segment {
		t.Errorf("round trip mismatch: got %+v, want %+v", got, want)
	}
}

// TestCompareSweepBench pins the regression gate: only dimensionless
// ratios gate, and only when they fall more than the tolerance below
// the baseline.
func TestCompareSweepBench(t *testing.T) {
	old := SweepBenchResult{
		WallSeconds: 10, SimsPerSec: 20,
		Segment: &StreamBenchResult{Speedup: 4.0},
	}
	for _, tc := range []struct {
		name      string
		speedup   float64
		regressed bool
	}{
		{"within a 25% tolerance", 3.2, false},
		{"collapsed", 1.0, true},
	} {
		cur := SweepBenchResult{
			// Wall time doubled: reported, never gated.
			WallSeconds: 20, SimsPerSec: 10,
			Segment: &StreamBenchResult{Speedup: tc.speedup},
		}
		byName := make(map[string]BenchDelta)
		for _, d := range CompareSweepBench(old, cur, 25) {
			byName[d.Name] = d
		}
		for name, want := range map[string]struct{ gated, regressed bool }{
			"wall_seconds":    {false, false},
			"sims_per_sec":    {false, false},
			"segment.speedup": {true, tc.regressed},
		} {
			d, ok := byName[name]
			if !ok {
				t.Errorf("%s: missing delta %q", tc.name, name)
				continue
			}
			if d.Gated != want.gated || d.Regressed != want.regressed {
				t.Errorf("%s: %s: gated=%v regressed=%v, want gated=%v regressed=%v",
					tc.name, name, d.Gated, d.Regressed, want.gated, want.regressed)
			}
		}
		// Entries absent on one side are skipped, not invented.
		for _, d := range CompareSweepBench(SweepBenchResult{}, cur, 25) {
			if d.Name == "segment.speedup" {
				t.Errorf("delta %q emitted though baseline lacks the entry", d.Name)
			}
		}
	}
}

// TestCompareSweepBenchLegacyBaseline loads a BENCH_sweep.json written
// by an older build, which carries an entry this build no longer emits.
// The unknown entry must load without error and be ignored by the gate.
func TestCompareSweepBenchLegacyBaseline(t *testing.T) {
	old, err := ReadSweepBenchJSON(filepath.Join("testdata", "bench_sweep_legacy.json"))
	if err != nil {
		t.Fatal(err)
	}
	cur := old
	cur.WallSeconds *= 2
	for _, d := range CompareSweepBench(old, cur, 60) {
		if d.Regressed {
			t.Errorf("%s regressed against its own ratios", d.Name)
		}
		if d.Name != "wall_seconds" && d.Name != "sims_per_sec" && !strings.HasPrefix(d.Name, "segment.") {
			t.Errorf("delta %q compares an entry this build does not emit", d.Name)
		}
	}
}

// FuzzReadSweepBenchJSON feeds arbitrary bytes to the bench baseline
// reader. It must load a record or fail with errclass.ErrCorrupt, never
// panic; a loaded record must survive the comparison gate and a write
// and re-read unchanged.
func FuzzReadSweepBenchJSON(f *testing.F) {
	for _, seed := range []string{"BENCH_sweep.json", filepath.Join("testdata", "bench_sweep_legacy.json")} {
		data, err := os.ReadFile(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"segment": {"speedup": "fast"}}`))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "in.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSweepBenchJSON(path)
		if err != nil {
			if !errclass.IsCorrupt(err) {
				t.Fatalf("unclassified read error: %v", err)
			}
			return
		}
		CompareSweepBench(got, got, 25)
		out := filepath.Join(dir, "out.json")
		if err := WriteSweepBenchJSON(out, got); err != nil {
			t.Fatalf("accepted record does not write back: %v", err)
		}
		again, err := ReadSweepBenchJSON(out)
		if err != nil {
			t.Fatalf("written record does not read back: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip changed the record:\n  got  %+v\n  want %+v", again, got)
		}
	})
}
