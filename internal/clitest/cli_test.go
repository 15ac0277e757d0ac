// Package clitest builds the command-line tools and exercises them
// end-to-end.
package clitest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	ce "repro"
	"repro/internal/prog"
	"repro/internal/trace"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cebin")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binDir = dir
	for _, tool := range []string{"cedelay", "cesim", "cesweep", "cesweepd", "ceasm"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "repro/cmd/"+tool)
		cmd.Dir = repoRoot()
		if out, err := cmd.CombinedOutput(); err != nil {
			os.Stderr.Write(out)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

func repoRoot() string {
	wd, _ := os.Getwd()
	return filepath.Dir(filepath.Dir(wd)) // internal/clitest → repo root
}

func run(t *testing.T, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// mustRun runs tool and fails the test on a nonzero exit. Every cesweep
// sweep also dumps its metrics (to a temporary file unless the caller
// asked for -metrics-json) and has its trace counters checked.
func mustRun(t *testing.T, tool string, args ...string) string {
	t.Helper()
	metrics := ""
	if tool == "cesweep" {
		for i, a := range args {
			if a == "-metrics-json" && i+1 < len(args) {
				metrics = args[i+1]
			}
		}
		if metrics == "" {
			metrics = filepath.Join(t.TempDir(), "sweep-metrics.json")
			args = append(args, "-metrics-json", metrics)
		}
	}
	out, err := run(t, tool, args...)
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	if metrics != "" {
		checkSweepStats(t, metrics)
	}
	return out
}

// checkSweepStats asserts ce.TraceStats.Check and ce.CacheStats.Check on
// a sweep's -metrics-json dump: each trace-pool and run-cache event
// counted once.
func checkSweepStats(t *testing.T, metrics string) {
	t.Helper()
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("sweep metrics: %v", err)
	}
	var dump struct {
		Trace ce.TraceStats `json:"trace"`
		Cache ce.CacheStats `json:"cache"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("sweep metrics malformed: %v\n%s", err, data)
	}
	if err := dump.Trace.Check(); err != nil {
		t.Errorf("%v (%+v)", err, dump.Trace)
	}
	if err := dump.Cache.Check(); err != nil {
		t.Errorf("%v (%+v)", err, dump.Cache)
	}
}

func TestCedelayTables(t *testing.T) {
	out := mustRun(t, "cedelay", "-table", "2")
	for _, want := range []string{"Table 2", "1577.9", "0.18um"} {
		if !strings.Contains(out, want) {
			t.Errorf("cedelay -table 2 missing %q:\n%s", want, out)
		}
	}
	out = mustRun(t, "cedelay", "-fig", "5")
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "8-way") {
		t.Errorf("cedelay -fig 5 output wrong:\n%s", out)
	}
	out = mustRun(t, "cedelay", "-point", "0.18um,8,64")
	if !strings.Contains(out, "critical path") {
		t.Errorf("cedelay -point output wrong:\n%s", out)
	}
	out = mustRun(t, "cedelay", "-table", "1", "-csv")
	if !strings.Contains(out, "issue width,wire length (lambda),delay (ps)") {
		t.Errorf("cedelay CSV output wrong:\n%s", out)
	}
}

func TestCedelayErrors(t *testing.T) {
	if out, err := run(t, "cedelay"); err == nil {
		t.Errorf("cedelay with no flags succeeded:\n%s", out)
	}
	if out, err := run(t, "cedelay", "-point", "bogus"); err == nil {
		t.Errorf("cedelay with bad point succeeded:\n%s", out)
	}
	if out, err := run(t, "cedelay", "-point", "1.5um,8,64"); err == nil {
		t.Errorf("cedelay with unknown tech succeeded:\n%s", out)
	}
}

func TestCesimRunAndTimeline(t *testing.T) {
	out := mustRun(t, "cesim", "-config", "dependence", "-workload", "micro.chain", "-timeline", "5")
	for _, want := range []string{"IPC:", "committed instructions:", "pipeline (cycles from start)"} {
		if !strings.Contains(out, want) {
			t.Errorf("cesim output missing %q:\n%s", want, out)
		}
	}
	out = mustRun(t, "cesim", "-list")
	if !strings.Contains(out, "configurations:") || !strings.Contains(out, "compress") {
		t.Errorf("cesim -list output wrong:\n%s", out)
	}
	if out, err := run(t, "cesim", "-config", "bogus"); err == nil {
		t.Errorf("cesim with unknown config succeeded:\n%s", out)
	}
	if out, err := run(t, "cesim", "-workload", "bogus"); err == nil {
		t.Errorf("cesim with unknown workload succeeded:\n%s", out)
	}
}

func TestCeasmPipeline(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.s")
	bin := filepath.Join(dir, "prog.bin")
	program := `
		.text
main:	li   $t0, 6
		li   $t1, 7
		mul  $t2, $t0, $t1
		out  $t2
		halt
	`
	if err := os.WriteFile(src, []byte(program), 0o644); err != nil {
		t.Fatal(err)
	}
	// Assemble → run from source.
	out := mustRun(t, "ceasm", "-run", src)
	if !strings.Contains(out, "out[0] = 42") {
		t.Errorf("ceasm -run output wrong:\n%s", out)
	}
	// Assemble → object → run from the binary.
	mustRun(t, "ceasm", "-run", src, "-o", bin)
	out = mustRun(t, "ceasm", "-run", bin)
	if !strings.Contains(out, "out[0] = 42") {
		t.Errorf("ceasm binary run output wrong:\n%s", out)
	}
	// Disassembly includes the mnemonics.
	out = mustRun(t, "ceasm", "-dump", src)
	if !strings.Contains(out, "mul $t2, $t0, $t1") || !strings.Contains(out, "main:") {
		t.Errorf("ceasm -dump output wrong:\n%s", out)
	}
	// Built-in workload dump.
	out = mustRun(t, "ceasm", "-workload", "li", "-dump", "")
	if !strings.Contains(out, "instructions") {
		t.Errorf("ceasm workload dump wrong:\n%s", out)
	}
	// Assembly errors carry positions.
	bad := filepath.Join(dir, "bad.s")
	if err := os.WriteFile(bad, []byte("\t.text\n\tfrob $t0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := run(t, "ceasm", "-run", bad); err == nil || !strings.Contains(out, "bad.s:2") {
		t.Errorf("ceasm bad input: err=%v out=%s", err, out)
	}
}

func TestCesweepFigure13(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	out := mustRun(t, "cesweep", "-fig", "13")
	for _, want := range []string{"Figure 13", "compress", "vortex", "dependence-8fifo-x8"} {
		if !strings.Contains(out, want) {
			t.Errorf("cesweep -fig 13 missing %q:\n%s", want, out)
		}
	}
	if out, err := run(t, "cesweep"); err == nil {
		t.Errorf("cesweep with no flags succeeded:\n%s", out)
	}
}

func TestCesweepUnknownFigure(t *testing.T) {
	out, err := run(t, "cesweep", "-fig", "14")
	if err == nil {
		t.Fatalf("cesweep -fig 14 succeeded:\n%s", out)
	}
	if !strings.Contains(out, "unknown figure 14 (want 13, 15 or 17)") {
		t.Errorf("cesweep -fig 14 error not explicit:\n%s", out)
	}
	if strings.Contains(out, "nothing selected") {
		t.Errorf("cesweep -fig 14 still reports the misleading fall-through error:\n%s", out)
	}
}

// TestCesweepFlushesMetricsOnError: when a sweep invocation fails after
// some runs completed, the metrics file and -v cache statistics must
// still cover the completed runs — the regression for run() returning
// early without calling finish(), which left -metrics-json as the empty
// pre-flight file.
func TestCesweepFlushesMetricsOnError(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	// -speedup completes its matrix, then the unknown figure errors out.
	out, err := run(t, "cesweep", "-speedup", "-fig", "14", "-v", "-metrics-json", metrics)
	if err == nil {
		t.Fatalf("cesweep -speedup -fig 14 succeeded:\n%s", out)
	}
	if !strings.Contains(out, "unknown figure 14") {
		t.Errorf("missing figure error:\n%s", out)
	}
	if !strings.Contains(out, "cesweep: cache:") {
		t.Errorf("-v cache statistics not printed on the error path:\n%s", out)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics file not written on error path: %v", err)
	}
	var dump struct {
		Runs []struct {
			Cycles int64 `json:"cycles"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("metrics JSON malformed (empty pre-flight file?): %v\n%s", err, data)
	}
	if len(dump.Runs) == 0 {
		t.Fatal("metrics file has no runs despite a completed -speedup sweep")
	}
	checkSweepStats(t, metrics)
	for _, r := range dump.Runs {
		if r.Cycles <= 0 {
			t.Errorf("degenerate run metric on error path: %+v", r)
		}
	}
}

func TestCesweepObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	cacheDir := filepath.Join(dir, "runs")
	// -fig 15 and -speedup in one invocation: the speedup estimate reuses
	// the Figure 15 matrix, so -v must report saved simulator runs.
	out := mustRun(t, "cesweep", "-fig", "15", "-speedup",
		"-v", "-metrics-json", metrics, "-cache-dir", cacheDir)
	for _, want := range []string{"Figure 15", "geomean", "cesweep: cache:", "simulator runs saved", "Mcyc/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("cesweep -v output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	var dump struct {
		Runs []struct {
			Config   string  `json:"config"`
			Workload string  `json:"workload"`
			Cached   bool    `json:"cached"`
			Cycles   int64   `json:"cycles"`
			IPC      float64 `json:"ipc"`
		} `json:"runs"`
		Cache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("metrics JSON malformed: %v\n%s", err, data)
	}
	// 14 fresh pairs for Figure 15, then 14 cache hits for the estimate.
	if len(dump.Runs) != 28 {
		t.Errorf("metrics recorded %d runs, want 28", len(dump.Runs))
	}
	if dump.Cache.Misses != 14 || dump.Cache.Hits != 14 {
		t.Errorf("cache counters = %+v, want 14 misses / 14 hits", dump.Cache)
	}
	for _, r := range dump.Runs {
		if r.Cycles <= 0 || r.IPC <= 0 {
			t.Errorf("degenerate run metric: %+v", r)
		}
	}

	// A second process over the same -cache-dir simulates nothing.
	out = mustRun(t, "cesweep", "-fig", "15", "-v", "-cache-dir", cacheDir)
	if !strings.Contains(out, "14 disk hits, 0 misses") {
		t.Errorf("disk cache not used on rerun:\n%s", out)
	}
}

// TestCesweepTraceDir exercises the trace pool's disk spillover end to
// end: a cold run captures and persists one trace per workload, a warm
// run reuses every file without re-executing, and corrupt or truncated
// files are dropped and recaptured rather than trusted or fatal.
func TestCesweepTraceDir(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	traces := filepath.Join(t.TempDir(), "traces")
	// Cold: Figure 13 runs seven workloads; each is captured once.
	out := mustRun(t, "cesweep", "-fig", "13", "-v", "-trace-dir", traces)
	if !strings.Contains(out, "7 captured, 0 loaded from disk") {
		t.Errorf("cold run did not capture every workload:\n%s", out)
	}
	files, err := filepath.Glob(filepath.Join(traces, "*.cetrace"))
	if err != nil || len(files) != 7 {
		t.Fatalf("cold run left %d trace files (err %v), want 7", len(files), err)
	}

	// Warm: every trace is loaded, nothing is re-executed.
	out = mustRun(t, "cesweep", "-fig", "13", "-v", "-trace-dir", traces)
	if !strings.Contains(out, "0 captured, 7 loaded from disk") {
		t.Errorf("warm run did not reuse the traces:\n%s", out)
	}
	if !strings.Contains(out, "0 steps executed") {
		t.Errorf("warm run still executed instructions:\n%s", out)
	}

	// Damage two files: truncate one, flip a bit in another. Both must be
	// detected, dropped and recaptured; the rest still load.
	sort.Strings(files)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(files[1])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(files[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	// The truncated file fails at open and is recaptured up front. The
	// flipped file opens fine — chunk checksums verify lazily, so the
	// damage only surfaces mid-replay — and is then dropped and
	// recaptured transparently: 2 captures, but 6 loads (the flipped
	// file counted as a load before it was caught).
	out = mustRun(t, "cesweep", "-fig", "13", "-v", "-trace-dir", traces)
	if !strings.Contains(out, "2 captured, 6 loaded from disk") {
		t.Errorf("damaged traces not dropped and recaptured:\n%s", out)
	}
	if !strings.Contains(out, "1 corrupt traces dropped") {
		t.Errorf("mid-replay corruption not counted:\n%s", out)
	}

	// The recaptured files are whole again.
	out = mustRun(t, "cesweep", "-fig", "13", "-v", "-trace-dir", traces)
	if !strings.Contains(out, "0 captured, 7 loaded from disk") {
		t.Errorf("recaptured traces not reusable:\n%s", out)
	}
}

// TestCesweepStaleTraceFormat: a hand-written v2 trace file at the
// canonical path must be rejected with an explicit format message and
// recaptured in the current format, not trusted and not fatal.
func TestCesweepStaleTraceFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	traces := filepath.Join(t.TempDir(), "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := prog.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	// A structurally recognizable v2 file: old magic, right program
	// hash, padded past the minimum file size so the version check (not
	// the length check) is what rejects it.
	hash := trace.ProgHash(p)
	hdr := append([]byte("CETRACE\x02"), hash[:]...)
	hdr = append(hdr, make([]byte, 40)...)
	if err := os.WriteFile(trace.DiskPath(traces, p), hdr, 0o644); err != nil {
		t.Fatal(err)
	}

	out := mustRun(t, "cesweep", "-fig", "13", "-v", "-trace-dir", traces)
	if !strings.Contains(out, "format v2 < v3; recapturing") {
		t.Errorf("stale v2 trace not called out:\n%s", out)
	}
	if !strings.Contains(out, "7 captured, 0 loaded from disk") {
		t.Errorf("stale trace not recaptured:\n%s", out)
	}
	// The recapture left a current-format file behind.
	out = mustRun(t, "cesweep", "-fig", "13", "-v", "-trace-dir", traces)
	if !strings.Contains(out, "0 captured, 7 loaded from disk") {
		t.Errorf("recaptured trace not reusable:\n%s", out)
	}
	if strings.Contains(out, "recapturing") {
		t.Errorf("recaptured trace still reported stale:\n%s", out)
	}
}

// TestCesweepSegmentedCorruptChunk: with phase-sampled replay, a chunk
// corrupted mid-trace must be detected by a checksum at read time,
// dropped and recaptured — and the deterministic metrics of the
// damaged-then-recaptured run must be byte-identical to the clean
// run's, proving no segment worker ever consumed torn data.
func TestCesweepSegmentedCorruptChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	dir := t.TempDir()
	traces := filepath.Join(dir, "traces")
	clean := filepath.Join(dir, "clean.json")
	damaged := filepath.Join(dir, "damaged.json")
	mustRun(t, "cesweep", "-fig", "13", "-segments", "8", "-phases", "4", "-trace-dir", traces, "-metrics-det", clean)

	files, err := filepath.Glob(filepath.Join(traces, "*.cetrace"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no trace files captured (err %v)", err)
	}
	sort.Strings(files)
	// Flip a byte inside the first chunk's packed records (the file
	// header is 40 bytes), invalidating its checksum but nothing else.
	f, err := os.OpenFile(files[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 40+64); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := mustRun(t, "cesweep", "-fig", "13", "-segments", "8", "-phases", "4", "-v", "-trace-dir", traces, "-metrics-det", damaged)
	if !strings.Contains(out, "1 corrupt traces dropped") {
		t.Errorf("corrupt chunk not counted:\n%s", out)
	}
	a, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("deterministic metrics diverge after mid-trace corruption:\n%s\nvs\n%s", a, b)
	}
}
