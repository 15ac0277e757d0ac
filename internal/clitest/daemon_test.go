package clitest

// End-to-end tests of cesweepd: boot the real binary, talk to it over
// HTTP, and exercise exactly the lifecycle properties a long-lived
// server depends on — request coalescing, corrupt-store recovery,
// graceful shutdown draining, restart after a crash, and two daemons
// sharing one store.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	ce "repro"
)

// daemon is one running cesweepd under test.
type daemon struct {
	t   *testing.T
	cmd *exec.Cmd
	url string
	// done receives the process's exit error once; exited closes when the
	// process is gone (safe to select on any number of times).
	done   chan error
	exited chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

// startDaemon boots cesweepd on a free port and waits for its listening
// announcement. Extra args are appended after -addr/-quiet.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, done: make(chan error, 1), exited: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(binDir, "cesweepd"),
		append([]string{"-addr", "localhost:0", "-quiet"}, args...)...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The first stderr line announces the resolved address; keep draining
	// afterwards so the daemon never blocks on a full pipe.
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		fmt.Fprintln(&d.stderr, line)
		d.mu.Unlock()
		if i := strings.Index(line, "listening on "); i >= 0 {
			d.url = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if d.url == "" {
		d.cmd.Process.Kill()
		d.cmd.Wait()
		t.Fatalf("cesweepd never announced its address; stderr:\n%s", d.stderrText())
	}
	go func() {
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			fmt.Fprintln(&d.stderr, line)
			d.mu.Unlock()
		}
		err := d.cmd.Wait()
		d.done <- err
		close(d.exited)
	}()
	t.Cleanup(func() {
		select {
		case <-d.exited:
		default:
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
	return d
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// shutdown sends SIGTERM and waits for a clean exit.
func (d *daemon) shutdown() error {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.done:
		return err
	case <-time.After(2 * time.Minute):
		d.cmd.Process.Kill()
		return fmt.Errorf("cesweepd did not exit within 2m of SIGTERM; stderr:\n%s", d.stderrText())
	}
}

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (d *daemon) postRun(body string) (int, []byte, error) {
	resp, err := http.Post(d.url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// metrics fetches and decodes GET /metrics.
func (d *daemon) metrics() (map[string]map[string]json.Number, error) {
	code, body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics = %d: %s", code, body)
	}
	var m map[string]map[string]json.Number
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("metrics not JSON: %w\n%s", err, body)
	}
	return m, nil
}

func counter(t *testing.T, m map[string]map[string]json.Number, section, field string) int64 {
	t.Helper()
	v, ok := m[section][field]
	if !ok {
		return 0
	}
	n, err := v.Int64()
	if err != nil {
		t.Fatalf("metrics %s.%s = %q not an integer", section, field, v)
	}
	return n
}

func TestDaemonServesRuns(t *testing.T) {
	d := startDaemon(t)
	code, body, err := d.get("/healthz")
	if err != nil || code != http.StatusOK {
		t.Fatalf("healthz = %d, %v", code, err)
	}
	code, body, err = d.postRun(`{"config":"baseline","workload":"micro.chain"}`)
	if err != nil || code != http.StatusOK {
		t.Fatalf("POST /run = %d, %v: %s", code, err, body)
	}
	var m struct {
		IPC    float64 `json:"ipc"`
		Cached bool    `json:"cached"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("run response not JSON: %v\n%s", err, body)
	}
	if m.IPC <= 0 || m.Cached {
		t.Fatalf("implausible first run: %s", body)
	}
	if code, body, _ := d.postRun(`{"config":"bogus","workload":"micro.chain"}`); code != http.StatusBadRequest {
		t.Fatalf("bad config = %d: %s", code, body)
	}
}

// TestDaemonCoalescesConcurrentRuns: two identical POSTs racing into a
// cold daemon must produce exactly one simulation.
func TestDaemonCoalescesConcurrentRuns(t *testing.T) {
	d := startDaemon(t)
	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := d.postRun(`{"config":"baseline","workload":"micro.parallel"}`)
			if err != nil || code != http.StatusOK {
				errs <- fmt.Errorf("POST /run = %d, %v: %s", code, err, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m, err := d.metrics()
	if err != nil {
		t.Fatal(err)
	}
	if misses := counter(t, m, "cache", "misses"); misses != 1 {
		t.Fatalf("cache.misses = %d after %d identical concurrent requests, want 1\nmetrics: %v", misses, n, m)
	}
	if runs := counter(t, m, "server", "run_requests"); runs != n {
		t.Fatalf("server.run_requests = %d, want %d", runs, n)
	}
}

// TestDaemonCorruptCacheRecovery: a corrupted run-cache entry must not
// poison a daemon booted over the store — the entry is dropped and
// recomputed, not trusted and not fatal.
func TestDaemonCorruptCacheRecovery(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "runs")
	req := `{"config":"dependence","workload":"micro.chase"}`

	d := startDaemon(t, "-cache-dir", cacheDir)
	code, body, err := d.postRun(req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("seed POST /run = %d, %v: %s", code, err, body)
	}
	var want struct {
		Cycles int64 `json:"cycles"`
	}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if err := d.shutdown(); err != nil {
		t.Fatalf("first daemon shutdown: %v", err)
	}

	files, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cache entries persisted (err %v)", err)
	}
	for _, f := range files {
		if err := os.WriteFile(f, []byte(`{"truncated`), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2 := startDaemon(t, "-cache-dir", cacheDir)
	code, body, err = d2.postRun(req)
	if err != nil || code != http.StatusOK {
		t.Fatalf("POST /run over corrupt cache = %d, %v: %s", code, err, body)
	}
	var got struct {
		Cycles int64 `json:"cycles"`
		Cached bool  `json:"cached"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Cached {
		t.Fatalf("corrupt entry served as a cache hit: %s", body)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("recomputed run diverged: %d cycles, want %d", got.Cycles, want.Cycles)
	}
	m, err := d2.metrics()
	if err != nil {
		t.Fatal(err)
	}
	if misses := counter(t, m, "cache", "misses"); misses != 1 {
		t.Fatalf("cache.misses = %d, want 1 (recompute)", misses)
	}
}

// TestDaemonGracefulShutdown: SIGTERM while a simulation is in flight
// must drain — the response completes and the daemon exits 0.
func TestDaemonGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("real workload simulation in -short mode")
	}
	d := startDaemon(t)
	type result struct {
		code int
		body []byte
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		code, body, err := d.postRun(`{"config":"baseline","workload":"compress"}`)
		resc <- result{code, body, err}
	}()
	// Give the request time to reach the simulator, then pull the plug.
	time.Sleep(150 * time.Millisecond)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	r := <-resc
	if r.err != nil || r.code != http.StatusOK {
		t.Fatalf("in-flight request not drained: %d, %v: %s", r.code, r.err, r.body)
	}
	var m struct {
		IPC float64 `json:"ipc"`
	}
	if err := json.Unmarshal(r.body, &m); err != nil || m.IPC <= 0 {
		t.Fatalf("drained response implausible (%v): %s", err, r.body)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon exited non-zero after drain: %v\nstderr:\n%s", err, d.stderrText())
		}
	case <-time.After(2 * time.Minute):
		t.Fatalf("daemon did not exit after draining; stderr:\n%s", d.stderrText())
	}
	if !strings.Contains(d.stderrText(), "final metrics") {
		t.Errorf("no final metrics summary on stderr:\n%s", d.stderrText())
	}
}

// TestTwoDaemonsShareStore: two daemons over one -cache-dir/-trace-dir,
// hit with the same design point simultaneously, may both simulate it,
// but they must serve the same result and leave the store clean: entries
// are content-addressed and land by temp-file-plus-rename.
func TestTwoDaemonsShareStore(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "runs")
	traceDir := filepath.Join(dir, "traces")
	d1 := startDaemon(t, "-cache-dir", cacheDir, "-trace-dir", traceDir)
	d2 := startDaemon(t, "-cache-dir", cacheDir, "-trace-dir", traceDir)

	type result struct {
		IPC    float64 `json:"ipc"`
		Cycles int64   `json:"cycles"`
	}
	req := `{"config":"baseline","workload":"micro.stream"}`
	var (
		wg      sync.WaitGroup
		results [2]result
		errs    [2]error
	)
	for i, d := range []*daemon{d1, d2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body, err := d.postRun(req)
			if err != nil || code != http.StatusOK {
				errs[i] = fmt.Errorf("POST to %s = %d, %v: %s", d.url, code, err, body)
				return
			}
			errs[i] = json.Unmarshal(body, &results[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if results[0] != results[1] || results[0].Cycles <= 0 {
		t.Fatalf("daemons sharing a store disagree: %+v vs %+v", results[0], results[1])
	}

	var misses, diskHits uint64
	for _, d := range []*daemon{d1, d2} {
		cs, _ := daemonStats(t, d)
		misses += cs.Misses
		diskHits += cs.DiskHits
	}
	if misses < 1 || misses+diskHits != 2 {
		t.Fatalf("two lookups resolved as %d misses + %d disk hits, want 2 with at least 1 miss", misses, diskHits)
	}
	for _, dir := range []string{cacheDir, traceDir} {
		for _, pat := range []string{"*.tmp", "*.lock"} {
			if left, _ := filepath.Glob(filepath.Join(dir, pat)); len(left) != 0 {
				t.Errorf("%s left behind: %v", pat, left)
			}
		}
	}
}

// TestDaemonCrashRestart: a daemon SIGKILLed while answering a cold
// GET /figure/13 leaves a store that a restarted daemon loads cleanly.
// Its figure is byte-identical to one rendered on a clean store, its
// counters pass the trace-pool and run-cache invariants, and no temp
// file — the killed process's or a planted orphan — is ever loaded:
// only renamed entries are read, so a temp file is never parsed,
// removed or promoted.
func TestDaemonCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("three figure-13 sweeps in -short mode")
	}
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "runs")
	traceDir := filepath.Join(dir, "traces")
	args := []string{"-cache-dir", cacheDir, "-trace-dir", traceDir}

	d := startDaemon(t, args...)
	got := make(chan error, 1)
	go func() {
		code, body, err := d.get("/figure/13")
		if err == nil {
			err = fmt.Errorf("GET /figure/13 completed (%d, %d bytes) before the kill", code, len(body))
		}
		got <- err
	}()
	// Kill once the sweep has persisted its first result: the store then
	// holds some finished entries and is missing the rest.
	deadline := time.Now().Add(time.Minute)
	for {
		if entries, _ := filepath.Glob(filepath.Join(cacheDir, "*.json")); len(entries) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cache entry written within a minute; stderr:\n%s", d.stderrText())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-d.exited
	if err := <-got; strings.Contains(err.Error(), "before the kill") {
		t.Fatal(err)
	}

	// Orphans a writer killed between create and rename would leave.
	orphans := map[string][]byte{
		filepath.Join(cacheDir, "entry-orphan.tmp"): []byte(`{"key":`),
		filepath.Join(traceDir, "trace-orphan.tmp"): []byte("CETR torn"),
	}
	for path, data := range orphans {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var tmps []string
	for _, dir := range []string{cacheDir, traceDir} {
		found, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		tmps = append(tmps, found...)
	}
	t.Logf("%d temp files in the store after the kill, %d planted", len(tmps), len(orphans))
	before := make(map[string][]byte, len(tmps))
	for _, path := range tmps {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		before[path] = data
	}

	restarted := startDaemon(t, args...)
	fig := mustGetFigure(t, restarted, 13)
	fresh := t.TempDir()
	clean := mustGetFigure(t, startDaemon(t, "-cache-dir", filepath.Join(fresh, "runs"),
		"-trace-dir", filepath.Join(fresh, "traces")), 13)
	if !bytes.Equal(fig, clean) {
		t.Fatalf("figure 13 after a crash differs from a clean store's:\n%s\nvs\n%s", fig, clean)
	}
	cs, ts := daemonStats(t, restarted)
	if cs.DiskHits == 0 {
		t.Errorf("restarted daemon loaded none of the killed daemon's results")
	}
	if ts.CorruptDropped != 0 {
		t.Errorf("restarted daemon dropped %d corrupt traces; the killed writer left a torn file in place", ts.CorruptDropped)
	}
	for path, data := range before {
		now, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(now, data) {
			t.Errorf("temp file %s was touched by the restarted daemon (err %v)", filepath.Base(path), err)
		}
	}
}

// mustGetFigure fetches GET /figure/n and fails the test on any error.
func mustGetFigure(t *testing.T, d *daemon, n int) []byte {
	t.Helper()
	code, body, err := d.get(fmt.Sprintf("/figure/%d", n))
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /figure/%d = %d, %v: %s", n, code, err, body)
	}
	return body
}

// daemonStats returns a daemon's GET /metrics cache and trace counters
// after asserting ce.CacheStats.Check and ce.TraceStats.Check on them.
func daemonStats(t *testing.T, d *daemon) (ce.CacheStats, ce.TraceStats) {
	t.Helper()
	code, body, err := d.get("/metrics")
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET /metrics = %d, %v: %s", code, err, body)
	}
	var m struct {
		Cache ce.CacheStats `json:"cache"`
		Trace ce.TraceStats `json:"trace"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if err := m.Cache.Check(); err != nil {
		t.Errorf("%s: %v", d.url, err)
	}
	if err := m.Trace.Check(); err != nil {
		t.Errorf("%s: %v", d.url, err)
	}
	return m.Cache, m.Trace
}
