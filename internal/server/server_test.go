package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro"
	"repro/internal/canonjson/canonjsontest"
	"repro/internal/core"
)

// newTestServer boots a fresh engine (no shared DefaultEngine state) and
// returns its API under an httptest server.
func newTestServer(t *testing.T, log *bytes.Buffer) (*Server, *httptest.Server) {
	t.Helper()
	var w *syncBuffer
	if log != nil {
		w = &syncBuffer{buf: log}
	}
	var opts Options
	if w != nil {
		opts.Log = w
	}
	s := New(ce.NewEngine(), opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// syncBuffer makes a bytes.Buffer safe for the logging middleware's
// concurrent writers.
type syncBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, buf.Bytes()
}

func postRun(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("POST /run: read body: %v", err)
	}
	return resp.StatusCode, buf.Bytes()
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q, want 200 \"ok\\n\"", code, body)
	}
}

func TestRunNamedConfig(t *testing.T) {
	_, ts := newTestServer(t, nil)
	code, body := postRun(t, ts.URL, `{"config":"baseline","workload":"micro.chain"}`)
	if code != http.StatusOK {
		t.Fatalf("POST /run = %d: %s", code, body)
	}
	var m ce.RunMetrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal response: %v\n%s", err, body)
	}
	if m.Workload != "micro.chain" || m.Committed == 0 || m.IPC <= 0 {
		t.Fatalf("implausible metrics: %+v", m)
	}
	if m.Cached {
		t.Fatalf("first run reported cached: %+v", m)
	}
	// The same request again must be a cache hit.
	_, body = postRun(t, ts.URL, `{"config":"baseline","workload":"micro.chain"}`)
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal second response: %v", err)
	}
	if !m.Cached {
		t.Fatalf("second identical run not cached: %+v", m)
	}
}

func TestRunCustomScheduler(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"scheduler":{"kind":"fifos","clusters":2,"fifos_per_cluster":4,"depth":8},"workload":"micro.parallel"}`
	code, resp := postRun(t, ts.URL, body)
	if code != http.StatusOK {
		t.Fatalf("POST /run custom = %d: %s", code, resp)
	}
	var m ce.RunMetrics
	if err := json.Unmarshal(resp, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !strings.HasPrefix(m.Config, "custom-") {
		t.Fatalf("custom config name = %q, want custom-* prefix", m.Config)
	}
}

func TestRunCustomSchedulerMatchesStock(t *testing.T) {
	// A custom spec identical to the stock clustered machine must produce
	// identical simulated numbers.
	_, ts := newTestServer(t, nil)
	_, custom := postRun(t, ts.URL,
		`{"scheduler":{"kind":"exec-steer","size":64,"clusters":2},"workload":"micro.chase"}`)
	_, stock := postRun(t, ts.URL, `{"config":"exec-steer","workload":"micro.chase"}`)
	var cm, sm ce.RunMetrics
	if err := json.Unmarshal(custom, &cm); err != nil {
		t.Fatalf("unmarshal custom: %v", err)
	}
	if err := json.Unmarshal(stock, &sm); err != nil {
		t.Fatalf("unmarshal stock: %v", err)
	}
	if cm.Cycles != sm.Cycles || cm.Committed != sm.Committed {
		t.Fatalf("custom exec-steer diverges from stock: custom %d cycles, stock %d", cm.Cycles, sm.Cycles)
	}
}

func TestRunRejectsBadRequests(t *testing.T) {
	s, ts := newTestServer(t, nil)
	cases := []struct {
		name, body string
		wantSub    string
	}{
		{"malformed JSON", `{`, "malformed"},
		{"unknown field", `{"config":"baseline","workload":"micro.chain","bogus":1}`, "malformed"},
		{"unknown workload", `{"config":"baseline","workload":"nope"}`, "unknown workload"},
		{"unknown config", `{"config":"nope","workload":"micro.chain"}`, "unknown config"},
		{"neither config nor scheduler", `{"workload":"micro.chain"}`, "exactly one"},
		{"both config and scheduler", `{"config":"baseline","scheduler":{"kind":"window","size":64},"workload":"micro.chain"}`, "exactly one"},
		{"unknown scheduler kind", `{"scheduler":{"kind":"wat"},"workload":"micro.chain"}`, "unknown scheduler kind"},
		{"window without size", `{"scheduler":{"kind":"window"},"workload":"micro.chain"}`, "size > 0"},
		{"fifos without depth", `{"scheduler":{"kind":"fifos","fifos_per_cluster":4},"workload":"micro.chain"}`, "depth > 0"},
		{"uneven clusters", `{"scheduler":{"kind":"fifos","clusters":3,"fifos_per_cluster":2,"depth":8},"workload":"micro.chain"}`, "clusters"},
		{"unknown predictor", `{"config":"baseline","workload":"micro.chain","predictor":"oracle"}`, "predictor"},
		{"trailing garbage", `{"config":"baseline","workload":"micro.chain"} {"bogus": garbage`, "after the JSON object"},
		{"second object", `{"config":"baseline","workload":"micro.chain"}{"config":"dependence","workload":"micro.chain"}`, "after the JSON object"},
		{"stray brace", `{"config":"baseline","workload":"micro.chain"}}`, "after the JSON object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := postRun(t, ts.URL, tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", code, body)
			}
			if !strings.Contains(string(body), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", body, tc.wantSub)
			}
		})
	}
	// Whitespace after the object is not data.
	if _, _, err := s.decodeRunRequest(strings.NewReader("{\"config\":\"baseline\",\"workload\":\"micro.chain\"}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
	// A body that breaks after the object reports the read error, not
	// trailing data.
	broken := errors.New("connection reset")
	body := io.MultiReader(strings.NewReader(`{"config":"baseline","workload":"micro.chain"} `), iotest.ErrReader(broken))
	if _, _, err := s.decodeRunRequest(body); !errors.Is(err, broken) || strings.Contains(err.Error(), "after the JSON object") {
		t.Errorf("read error after the object: err = %v, want it wrapped", err)
	}
}

func TestConcurrentRunsCoalesce(t *testing.T) {
	s, ts := newTestServer(t, nil)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, body := postRun(t, ts.URL, `{"config":"baseline","workload":"micro.branchy"}`)
			if code != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", code, body)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	cs := s.eng.CacheStats()
	if cs.Misses != 1 {
		t.Fatalf("cache misses = %d after %d identical concurrent requests, want 1 (stats: %+v)", cs.Misses, n, cs)
	}
	if got := cs.Hits + cs.Coalesced; got != n-1 {
		t.Fatalf("memory hits + coalesced = %d, want %d (stats: %+v)", got, n-1, cs)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	postRun(t, ts.URL, `{"config":"baseline","workload":"micro.stream"}`)
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal metrics: %v\n%s", err, body)
	}
	if m.Cache.Misses != 1 {
		t.Fatalf("metrics cache.misses = %d, want 1", m.Cache.Misses)
	}
	if m.Server.RunRequests != 1 || m.Server.Requests < 1 {
		t.Fatalf("server counters implausible: %+v", m.Server)
	}
	if m.Server.UptimeSeconds <= 0 {
		t.Fatalf("uptime = %v, want > 0", m.Server.UptimeSeconds)
	}
}

func TestFigureRejectsUnknown(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, n := range []string{"12", "abc", "0"} {
		code, _ := get(t, ts.URL+"/figure/"+n)
		if code != http.StatusNotFound {
			t.Fatalf("GET /figure/%s = %d, want 404", n, code)
		}
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	_, ts := newTestServer(t, &buf)
	get(t, ts.URL+"/healthz")
	postRun(t, ts.URL, `{"config":"nope","workload":"micro.chain"}`)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), buf.String())
	}
	var entry struct {
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, lines[0])
	}
	if entry.Method != "GET" || entry.Path != "/healthz" || entry.Status != 200 {
		t.Fatalf("first log entry = %+v", entry)
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if entry.Method != "POST" || entry.Status != 400 {
		t.Fatalf("second log entry = %+v", entry)
	}
}

// TestFigureMatchesLibrary runs the full figure 13 sweep through the
// daemon and checks byte-identity with ce.FigureJSON — the property the
// CI serve job checks against cesweep -json. Heavy (a real sweep), so
// skipped in -short.
func TestFigureMatchesLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep in -short mode")
	}
	_, ts := newTestServer(t, nil)
	code, body := get(t, ts.URL+"/figure/13")
	if code != http.StatusOK {
		t.Fatalf("GET /figure/13 = %d: %s", code, body)
	}
	want, err := ce.FigureJSON(13)
	if err != nil {
		t.Fatalf("FigureJSON(13): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("daemon figure 13 differs from ce.FigureJSON (got %d bytes, want %d)", len(body), len(want))
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	var g flightGroup
	var mu sync.Mutex
	calls := 0
	release := make(chan struct{})
	const n = 6
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := g.do("k", func() ([]byte, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				<-release
				return []byte("v"), nil
			})
			if err != nil {
				t.Errorf("flight error: %v", err)
			}
			results[i] = data
		}(i)
	}
	// Let the goroutines pile up on the flight, then release it. The
	// sleep-free way would need hooks inside do; a modest wait keeps the
	// test honest without flaking (latecomers simply start a new flight,
	// which the calls bound below tolerates).
	for {
		mu.Lock()
		started := calls > 0
		mu.Unlock()
		if started {
			break
		}
	}
	close(release)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if calls < 1 || calls > n {
		t.Fatalf("calls = %d", calls)
	}
	for i, r := range results {
		if string(r) != "v" {
			t.Fatalf("result[%d] = %q", i, r)
		}
	}
}

// TestFlightGroupRunsUnlocked pins that do runs fn outside the group's
// mutex: while flight "a" is blocked, do("b") returns.
func TestFlightGroupRunsUnlocked(t *testing.T) {
	var g flightGroup
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		g.do("a", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("a"), nil
		})
	}()
	<-started
	defer func() {
		close(release)
		<-done
	}()
	returned := make(chan []byte, 1)
	go func() {
		data, _ := g.do("b", func() ([]byte, error) { return []byte("b"), nil })
		returned <- data
	}()
	select {
	case data := <-returned:
		if string(data) != "b" {
			t.Fatalf(`do("b") = %q, want "b"`, data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal(`do("b") blocked while flight "a" was running`)
	}
}

func TestFlightGroupPanicPropagatesError(t *testing.T) {
	var g flightGroup
	func() {
		defer func() { recover() }()
		g.do("p", func() ([]byte, error) { panic("boom") })
	}()
	// The key must be forgotten so the next call retries.
	data, err := g.do("p", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(data) != "ok" {
		t.Fatalf("retry after panic = %q, %v", data, err)
	}
}

// TestRunRejectsOversizedGeometry pins the in-flight bound on custom
// schedulers: one past it on any axis is answered with 400, the bound
// itself is accepted.
func TestRunRejectsOversizedGeometry(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for _, sched := range []string{
		`{"kind":"window","size":129}`,
		`{"kind":"random-select","size":129}`,
		`{"kind":"exec-steer","size":129,"clusters":2}`,
		`{"kind":"fifos","clusters":2,"fifos_per_cluster":65,"depth":8}`,
		`{"kind":"fifos","fifos_per_cluster":129,"depth":1}`,
		`{"kind":"fifos","fifos_per_cluster":8,"depth":129}`,
	} {
		code, body := postRun(t, ts.URL, `{"scheduler":`+sched+`,"workload":"micro.chain"}`)
		if code != http.StatusBadRequest || !strings.Contains(string(body), "in-flight") {
			t.Errorf("%s: %d %s, want 400 naming the in-flight bound", sched, code, body)
		}
	}
	for _, sched := range []string{
		`{"kind":"window","size":128}`,
		`{"kind":"fifos","clusters":8,"fifos_per_cluster":16,"depth":128}`,
	} {
		if _, _, err := s.decodeRunRequest(strings.NewReader(`{"scheduler":` + sched + `,"workload":"micro.chain"}`)); err != nil {
			t.Errorf("%s: %v, want accepted", sched, err)
		}
	}
}

// FuzzRunRequest feeds arbitrary POST /run bodies to the request
// decoder. Each must give a runnable configuration inside the in-flight
// bound, or an error; it must never panic, and it must reject a body
// that is more than one JSON value (the "trailing" seed).
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"config":"baseline","workload":"micro.chain"}`,
		`{"config":"dependence","workload":"compress","predictor":"perfect"}`,
		`{"scheduler":{"kind":"fifos","clusters":2,"fifos_per_cluster":4,"depth":8,"any_slot":true},"workload":"go"}`,
		`{"scheduler":{"kind":"exec-steer","size":64,"clusters":4},"workload":"li"}`,
		`{"scheduler":{"kind":"window","size":129},"workload":"li"}`,
		`{"scheduler":{"kind":"fifos","clusters":2,"fifos_per_cluster":65,"depth":8},"workload":"li"}`,
		`{"scheduler":{"kind":"window","size":9223372036854775807},"workload":"li"}`,
		`{"scheduler":{"kind":"fifos","clusters":8,"fifos_per_cluster":2305843009213693952,"depth":1},"workload":"li"}`,
		`{"scheduler":{"kind":"random-select","size":-1},"workload":"li"}`,
		`{"config":"baseline","workload":"micro.chain"} trailing`,
		`[]`,
		``,
	} {
		f.Add([]byte(body))
	}
	s := New(ce.NewEngine(), Options{})
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, workload, err := s.decodeRunRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted a body that is not one JSON value: %q", body)
		}
		if !s.workloads[workload] {
			t.Fatalf("accepted unknown workload %q", workload)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted an invalid configuration: %v", err)
		}
		if _, ok := cfg.Key(); !ok {
			t.Fatalf("accepted configuration %q has no run-cache key", cfg.Name)
		}
		sp, limit := cfg.Scheduler, cfg.MaxInFlight
		if sp.Kind == core.SchedFIFOBank {
			if f := sp.FIFO; f.Clusters < 1 || f.FIFOsPerCluster > limit/f.Clusters || f.Depth > limit {
				t.Fatalf("accepted FIFO geometry %+v beyond the %d in-flight bound", f, limit)
			}
		} else if sp.Size > limit {
			t.Fatalf("accepted window size %d beyond the %d in-flight bound", sp.Size, limit)
		}
	})
}

// TestMetricsMatchesOracle pins the GET /metrics bytes to the canonical
// encoder's reference.
func TestMetricsMatchesOracle(t *testing.T) {
	s, _ := newTestServer(t, nil)
	canonjsontest.Check(t, "snapshot", s.MetricsSnapshot())
	for seed := int64(0); seed < 100; seed++ {
		var m Metrics
		canonjsontest.Fill(&m, rand.New(rand.NewSource(seed)))
		canonjsontest.Check(t, "filled", m)
	}
}
