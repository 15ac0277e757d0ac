package ce

import "testing"

// TestStreamBench smoke-tests the sampled-simulation benchmark at unit
// scale, once captured into an anonymous temp file and once into a
// trace directory:
// the monolithic exact truth and the phase-sampled estimate within its
// segment budget and a sane error band of the truth. The estimate must
// be bit for bit the IPC an engine with the same plan serves.
func TestStreamBench(t *testing.T) {
	for _, tc := range []struct {
		name string
		dir  string
	}{
		{"anonymous", ""},
		{"disk", t.TempDir()},
	} {
		res, err := StreamBench("compress.big", tc.dir, 16, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Steps == 0 || res.ExactCycles <= 0 || res.ExactIPC <= 0 {
			t.Fatalf("%s: exact side empty: %+v", tc.name, res)
		}
		if res.TraceDiskBytes == 0 {
			t.Errorf("%s: trace has no bytes on disk", tc.name)
		}
		if res.Segments != 16 || res.Warmup != segWarmup {
			t.Errorf("%s: plan not honoured: %+v", tc.name, res)
		}
		if res.Phases < 1 || res.Phases > 4 {
			t.Errorf("%s: %d phases, want 1..4", tc.name, res.Phases)
		}
		if res.SampledIPC <= 0 || res.SimulatedSteps == 0 || res.Speedup <= 0 {
			t.Errorf("%s: degenerate sampled result: %+v", tc.name, res)
		}
		if res.SimulatedSteps >= res.Steps {
			t.Errorf("%s: simulated %d of %d steps — sampling did not sample",
				tc.name, res.SimulatedSteps, res.Steps)
		}
		if res.IPCErrorPct < -5 || res.IPCErrorPct > 5 {
			t.Errorf("%s: sampled IPC off by %.2f%%", tc.name, res.IPCErrorPct)
		}
		eng := NewEngine()
		if err := eng.SetPhaseSampling(16, 4); err != nil {
			t.Fatal(err)
		}
		st, _, err := eng.RunOne(BaselineConfig(), "compress.big")
		if err != nil {
			t.Fatal(err)
		}
		if st.IPC() != res.SampledIPC {
			t.Errorf("%s: engine serves IPC %v, StreamBench measured %v", tc.name, st.IPC(), res.SampledIPC)
		}
	}
}
