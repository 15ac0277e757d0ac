package pipeline

import (
	"fmt"
	"strconv"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
)

// buildScheduler constructs the configured scheduler. Validate has
// already rejected configurations with neither field set.
func (c *Config) buildScheduler() core.Scheduler {
	b := core.Bounds{InFlight: c.MaxInFlight, PhysRegs: c.PhysRegs}
	if c.NewScheduler != nil {
		return c.NewScheduler(b)
	}
	return c.Scheduler.Build(b)
}

// buildPredictor constructs the configured direction predictor (nil under
// PerfectBPred: every conditional branch is predicted correctly).
func (c *Config) buildPredictor() (bpred.Predictor, error) {
	if c.PerfectBPred {
		return nil, nil
	}
	switch c.Predictor {
	case "", "gshare":
		return bpred.NewGshare(12, 12), nil
	case "bimodal":
		return bpred.NewBimodal(12), nil
	case "taken":
		return bpred.Static{Taken: true}, nil
	default:
		return nil, fmt.Errorf("pipeline: %s: unknown predictor %q (want gshare, bimodal or taken)", c.Name, c.Predictor)
	}
}

// predictorKey is the canonical predictor identity used in Key.
func (c *Config) predictorKey() string {
	if c.PerfectBPred {
		return "perfect"
	}
	if c.Predictor == "" {
		return "gshare"
	}
	return c.Predictor
}

func appendInt(b []byte, tag string, v int) []byte {
	return strconv.AppendInt(append(b, tag...), int64(v), 10)
}

func appendBool(b []byte, tag string, v bool) []byte {
	return strconv.AppendBool(append(b, tag...), v)
}

// appendCacheKey appends the canonical identity of one cache geometry.
func appendCacheKey(b []byte, tag string, cc cache.Config) []byte {
	b = appendInt(b, tag, cc.SizeBytes)
	b = appendInt(b, "/", cc.Ways)
	b = appendInt(b, "/", cc.LineBytes)
	b = appendInt(b, "/", cc.HitCycles)
	return appendInt(b, "/", cc.MissCycles)
}

// Key returns a canonical structural fingerprint of every timing-relevant
// field, and whether the configuration is fingerprintable at all. Two
// configurations with equal keys produce byte-identical Stats for any
// workload (the simulator is deterministic), so the key is a sound memo
// key for a run cache.
//
// Name is excluded — it labels reports without affecting timing, so
// renamed copies of one machine share a key. RecordTimeline and
// CheckInvariants are excluded for the same reason (they change what is
// recorded or asserted, not what happens).
// Configurations using the opaque NewScheduler closure report ok=false
// and must be simulated directly.
//
// The bytes are part of the on-disk format: the run cache names each
// persisted entry by the sha256 of its key, so one changed byte orphans
// every entry (the root package's TestConfigKeyGolden pins them). The key
// is appended into one buffer without fmt, since a warm daemon builds
// one for every request it answers.
func (c *Config) Key() (key string, ok bool) {
	if c.NewScheduler != nil || c.Scheduler == nil {
		return "", false
	}
	dcache := c.DCache
	if dcache == (cache.Config{}) {
		dcache = cache.Baseline()
	}
	b := make([]byte, 0, 224)
	b = appendInt(b, "fw", c.FetchWidth)
	b = appendInt(b, "|dw", c.DecodeWidth)
	b = appendInt(b, "|iw", c.IssueWidth)
	b = appendInt(b, "|rw", c.RetireWidth)
	b = appendInt(b, "|rob", c.MaxInFlight)
	b = appendInt(b, "|pr", c.PhysRegs)
	b = appendInt(b, "|cl", c.Clusters)
	b = appendInt(b, "|fu", c.FUsPerCluster)
	b = appendInt(b, "|ls", c.LSPorts)
	b = appendInt(b, "|xd", c.InterClusterDelay)
	b = appendInt(b, "|fe", c.FrontEndDepth)
	b = appendInt(b, "|fq", c.FetchQueueSize)
	b = append(append(b, "|bp="...), c.predictorKey()...)
	b = appendBool(b, "|pws=", c.PipelinedWakeupSelect)
	b = appendInt(b, "|lbe", c.LocalBypassExtra)
	b = appendBool(b, "|ring=", c.RingTopology)
	b = appendBool(b, "|stf=", c.StoreForwarding)
	b = appendBool(b, "|fbt=", c.FetchBreakOnTaken)
	// NoCycleSkip is timing-neutral by construction (the differential
	// harness asserts it), but it stays in the key so a skip-path
	// regression could never be masked by a cache hit from the other path.
	b = appendBool(b, "|ncs=", c.NoCycleSkip)
	b = c.Scheduler.AppendKey(append(b, "|sched="...))
	b = appendCacheKey(b, "|dc=", dcache)
	if c.ICache != nil {
		b = appendCacheKey(b, "|ic=", *c.ICache)
	} else {
		b = append(b, "|ic=none"...)
	}
	return string(b), true
}
