package ce

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// TestConfigKeyGolden pins the exact bytes of Config.Key. The run cache
// names its disk entries by the sha256 of the key, so a changed byte
// would orphan every persisted result without failing anything else.
func TestConfigKeyGolden(t *testing.T) {
	named := map[string]string{
		"4way":             "fw4|dw4|iw4|rw8|rob128|pr120|cl1|fu4|ls4|xd0|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=window/32|dc=32768/2/32/1/6|ic=none",
		"baseline":         "fw8|dw8|iw8|rw16|rob128|pr120|cl1|fu8|ls4|xd0|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=window/64|dc=32768/2/32/1/6|ic=none",
		"clustered":        "fw8|dw8|iw8|rw16|rob128|pr120|cl2|fu4|ls4|xd1|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=fifos/2x4x8/any=false/pol=0|dc=32768/2/32/1/6|ic=none",
		"dependence":       "fw8|dw8|iw8|rw16|rob128|pr120|cl1|fu8|ls4|xd0|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=fifos/1x8x8/any=false/pol=0|dc=32768/2/32/1/6|ic=none",
		"exec-steer":       "fw8|dw8|iw8|rw16|rob128|pr120|cl2|fu4|ls4|xd1|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=exec-steer/64/2|dc=32768/2/32/1/6|ic=none",
		"random-steer":     "fw8|dw8|iw8|rw16|rob128|pr120|cl2|fu4|ls4|xd1|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=fifos/2x1x32/any=true/pol=1|dc=32768/2/32/1/6|ic=none",
		"windows-dispatch": "fw8|dw8|iw8|rw16|rob128|pr120|cl2|fu4|ls4|xd1|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=fifos/2x8x4/any=true/pol=0|dc=32768/2/32/1/6|ic=none",
	}
	names := ConfigNames()
	if len(names) != len(named) {
		t.Errorf("ConfigNames() = %v; the golden table has %d entries", names, len(named))
	}
	for _, n := range names {
		cfg, _ := NamedConfig(n)
		checkKey(t, n, cfg, named[n])
	}

	custom := []struct {
		clusters int
		spec     core.SchedulerSpec
		want     string
	}{
		{1, core.WindowSpec(48),
			"fw8|dw8|iw8|rw16|rob128|pr120|cl1|fu8|ls4|xd0|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=window/48|dc=32768/2/32/1/6|ic=none"},
		{4, core.ExecSteeredSpec(64, 4),
			"fw8|dw8|iw8|rw16|rob128|pr120|cl4|fu2|ls4|xd1|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=exec-steer/64/4|dc=32768/2/32/1/6|ic=none"},
		{1, core.RandomSelectSpec(32),
			"fw8|dw8|iw8|rw16|rob128|pr120|cl1|fu8|ls4|xd0|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=random-select/32|dc=32768/2/32/1/6|ic=none"},
		{2, core.FIFOBankSpec(core.FIFOBankConfig{Name: "x", Clusters: 2, FIFOsPerCluster: 4, Depth: 8, AnySlot: true, Policy: core.SteerRandom}),
			"fw8|dw8|iw8|rw16|rob128|pr120|cl2|fu4|ls4|xd1|fe2|fq32|bp=gshare|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=fifos/2x4x8/any=true/pol=1|dc=32768/2/32/1/6|ic=none"},
	}
	for _, c := range custom {
		cfg, err := CustomConfig("custom", c.clusters, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		checkKey(t, c.spec.Key(), cfg, c.want)
	}

	// Every flag set, both caches explicit and a non-default predictor.
	cfg, _ := NamedConfig("clustered")
	cfg, _ = WithPredictor(cfg, "perfect")
	cfg.PipelinedWakeupSelect, cfg.RingTopology, cfg.StoreForwarding = true, true, true
	cfg.FetchBreakOnTaken, cfg.NoCycleSkip = true, true
	cfg.LocalBypassExtra = 3
	cfg.ICache = &cache.Config{SizeBytes: 16384, Ways: 4, LineBytes: 64, HitCycles: 1, MissCycles: 10}
	cfg.DCache = cache.Config{SizeBytes: 65536, Ways: 8, LineBytes: 64, HitCycles: 2, MissCycles: 20}
	checkKey(t, "all-flags", cfg,
		"fw8|dw8|iw8|rw16|rob128|pr120|cl2|fu4|ls4|xd1|fe2|fq32|bp=perfect|pws=true|lbe3|ring=true|stf=true|fbt=true|ncs=true|sched=fifos/2x4x8/any=false/pol=0|dc=65536/8/64/2/20|ic=16384/4/64/1/10")
	cfg, _ = NamedConfig("baseline")
	cfg, _ = WithPredictor(cfg, "bimodal")
	checkKey(t, "baseline+bimodal", cfg,
		"fw8|dw8|iw8|rw16|rob128|pr120|cl1|fu8|ls4|xd0|fe2|fq32|bp=bimodal|pws=false|lbe0|ring=false|stf=false|fbt=false|ncs=false|sched=window/64|dc=32768/2/32/1/6|ic=none")
}

func checkKey(t *testing.T, label string, cfg Config, want string) {
	t.Helper()
	got, ok := cfg.Key()
	if !ok || got != want {
		t.Errorf("%s: Key() = %q, %v\n want %q, true", label, got, ok, want)
	}
}
