package ce

import (
	"math/rand"
	"testing"

	"repro/internal/canonjson"
	"repro/internal/canonjson/canonjsontest"
)

// TestEmittedJSONMatchesOracle compares canonjson.Marshal with the
// encode, reparse and render reference over every type this package
// and cesweep emit, filled with edge and random values, and over a real
// simulation's statistics.
func TestEmittedJSONMatchesOracle(t *testing.T) {
	st, err := Run(BaselineConfig(), "micro.chain")
	if err != nil {
		t.Fatal(err)
	}
	canonjsontest.Check(t, "simulated Stats", st)
	canonjsontest.Check(t, "simulated Stats pointer", &st)

	// The shapes cesweep -metrics-json and -metrics-det write.
	type metricsDump struct {
		Runs  []RunMetrics `json:"runs"`
		Cache CacheStats   `json:"cache"`
		Trace TraceStats   `json:"trace"`
	}
	type detDump struct {
		Runs []struct {
			Config    string  `json:"config"`
			Workload  string  `json:"workload"`
			Cycles    int64   `json:"cycles"`
			Committed uint64  `json:"committed"`
			EmuSteps  uint64  `json:"emu_steps"`
			IPC       float64 `json:"ipc"`
		} `json:"runs"`
		Cache struct {
			Lookups     uint64 `json:"lookups"`
			Hits        uint64 `json:"hits"`
			DiskHits    uint64 `json:"disk_hits"`
			Misses      uint64 `json:"misses"`
			Uncacheable uint64 `json:"uncacheable"`
		} `json:"cache"`
	}
	samples := map[string]func() any{
		"Stats":               func() any { return new(Stats) },
		"RunMetrics":          func() any { return new(RunMetrics) },
		"figureDump":          func() any { return new(figureDump) },
		"frontierDump":        func() any { return new(frontierDump) },
		"SweepBenchResult":    func() any { return new(SweepBenchResult) },
		"StreamBenchResult":   func() any { return new(StreamBenchResult) },
		"PipelineBenchResult": func() any { return new([]PipelineBenchResult) },
		"metrics dump":        func() any { return new(metricsDump) },
		"det dump":            func() any { return new(detDump) },
	}
	for name, mk := range samples {
		for seed := int64(0); seed < 50; seed++ {
			p := mk()
			canonjsontest.Fill(p, rand.New(rand.NewSource(seed)))
			canonjsontest.Check(t, name, p)
		}
	}
	// RunMetrics with and without the segment plan, and its zero value
	// (every omitempty field absent).
	m := RunMetrics{Config: "baseline", Workload: "compress", Cycles: 1, IPC: 1.5e-7}
	canonjsontest.Check(t, "RunMetrics without Segments", m)
	m.Segments = &SegmentMetrics{Segments: 16, Phases: 4}
	canonjsontest.Check(t, "RunMetrics with Segments", m)
	canonjsontest.Check(t, "zero RunMetrics", RunMetrics{})
}

// Sinks keep the compiler from dropping the benchmarked calls.
var (
	sinkJSON []byte
	sinkKey  string
)

func BenchmarkMarshalRunMetrics(b *testing.B) {
	m := RunMetrics{Config: "baseline", Workload: "compress", Cached: true, Cycles: 123456,
		Committed: 234567, IPC: 1.9, EmuSteps: 234567, WallSeconds: 2.5e-6,
		HostAllocs: 12, HostWallSeconds: 0.25}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if sinkJSON, err = canonjson.Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalStats(b *testing.B) {
	st, err := Run(BaselineConfig(), "micro.chain")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkJSON, err = canonjson.Marshal(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConfigKey(b *testing.B) {
	cfg, _ := NamedConfig("clustered")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkKey, _ = cfg.Key()
	}
}
