package pipeline

import (
	"fmt"
	"strings"

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

func cacheKey(cc cache.Config) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d", cc.SizeBytes, cc.Ways, cc.LineBytes, cc.HitCycles, cc.MissCycles)
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
func (c *Config) Key() (key string, ok bool) {
	if c.NewScheduler != nil || c.Scheduler == nil {
		return "", false
	}
	dcache := c.DCache
	if dcache == (cache.Config{}) {
		dcache = cache.Baseline()
	}
	icache := "none"
	if c.ICache != nil {
		icache = cacheKey(*c.ICache)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fw%d|dw%d|iw%d|rw%d|rob%d|pr%d|cl%d|fu%d|ls%d|xd%d|fe%d|fq%d",
		c.FetchWidth, c.DecodeWidth, c.IssueWidth, c.RetireWidth,
		c.MaxInFlight, c.PhysRegs, c.Clusters, c.FUsPerCluster,
		c.LSPorts, c.InterClusterDelay, c.FrontEndDepth, c.FetchQueueSize)
	fmt.Fprintf(&b, "|bp=%s|pws=%v|lbe%d|ring=%v|stf=%v|fbt=%v|wpe=%v",
		c.predictorKey(), c.PipelinedWakeupSelect, c.LocalBypassExtra,
		c.RingTopology, c.StoreForwarding, c.FetchBreakOnTaken,
		c.WrongPathExecution)
	// NoCycleSkip is timing-neutral by construction (the differential
	// harness asserts it), but it stays in the key so a skip-path
	// regression could never be masked by a cache hit from the other path.
	fmt.Fprintf(&b, "|ncs=%v", c.NoCycleSkip)
	fmt.Fprintf(&b, "|sched=%s|dc=%s|ic=%s", c.Scheduler.Key(), cacheKey(dcache), icache)
	return b.String(), true
}
