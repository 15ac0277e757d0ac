// Package pipeline implements the out-of-order superscalar timing
// simulator used for the paper's Section 5 evaluation. It models the
// baseline pipeline of Figure 1 (fetch, decode/rename, dispatch,
// wakeup+select, execute with bypass, commit) with the Table 3 machine
// parameters, and accepts any core.Scheduler, so the same engine times the
// conventional window machine, the dependence-based FIFO machine, and the
// clustered organizations of Section 5.6.
//
// The simulator is trace-driven, like the paper's modified SimpleScalar:
// the functional emulator supplies resolved dynamic instructions, branch
// predictions are checked against actual outcomes, and a misprediction
// stalls fetch until the branch executes (no wrong-path execution).
//
// The package is bit-deterministic: identical configurations produce
// identical Stats on every run, which the run cache and the differential
// fuzzing harness both rely on. TestResultsDeterministic in the root
// package checks it by rendering every figure twice.
package pipeline

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/rename"
	"repro/internal/ring"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config describes one machine organization.
//
// Every field must feed Key() or be one of the timing-neutral fields
// TestKeySeparatesBehavior allowlists, so the run cache can never serve
// stats from a behaviorally different machine.
type Config struct {
	// Name labels the configuration in reports.
	Name string
	// FetchWidth is instructions fetched per cycle ("any 8 instructions"
	// in Table 3 — fetch may span taken branches).
	FetchWidth int
	// DecodeWidth bounds instructions renamed/dispatched per cycle.
	DecodeWidth int
	// IssueWidth bounds instructions issued per cycle across all clusters.
	IssueWidth int
	// RetireWidth bounds instructions committed per cycle.
	RetireWidth int
	// MaxInFlight is the reorder-buffer capacity.
	MaxInFlight int
	// PhysRegs is the number of physical integer registers.
	PhysRegs int
	// Clusters and FUsPerCluster shape the execution core; total
	// functional units = Clusters × FUsPerCluster.
	Clusters      int
	FUsPerCluster int
	// LSPorts bounds loads+stores issued per cycle (shared by clusters).
	LSPorts int
	// InterClusterDelay is the extra bypass latency, in cycles, for a
	// value consumed in a different cluster than it was produced in
	// (0 for uniform single-cycle bypass).
	InterClusterDelay int
	// FrontEndDepth is the fetch-to-dispatch latency in cycles
	// (decode + rename stages).
	FrontEndDepth int
	// FetchQueueSize bounds instructions fetched but not yet dispatched.
	FetchQueueSize int
	// PerfectBPred disables the direction predictor (every conditional
	// branch predicted correctly); unconditional control is always
	// predicted perfectly, per Table 3.
	PerfectBPred bool

	// PipelinedWakeupSelect models splitting the atomic wakeup+select
	// loop across two pipeline stages (Figure 10): dependent instructions
	// can no longer issue in consecutive cycles — every result becomes
	// visible to consumers one cycle later. The paper argues this is why
	// window logic must fit in a single cycle; the ablation quantifies it.
	PipelinedWakeupSelect bool
	// LocalBypassExtra adds cycles before a result is consumable in its
	// own cluster (0 = the full single-cycle bypass network of Table 3;
	// 2 ≈ no bypassing, operands only via the register file — the
	// incomplete-bypassing regime of Ahuja et al. discussed in §4.5).
	LocalBypassExtra int
	// RingTopology routes inter-cluster bypasses around a unidirectional
	// ring (the PEWs-style interconnect of §5.6.2's discussion): the
	// extra latency is InterClusterDelay per hop instead of a flat
	// InterClusterDelay to every other cluster.
	RingTopology bool
	// StoreForwarding lets a load whose address matches an older
	// in-flight store receive the value at hit latency over the bypass
	// network instead of accessing the data cache.
	StoreForwarding bool
	// FetchBreakOnTaken ends a fetch cycle at the first taken control
	// instruction (Table 3's baseline fetches "any 8 instructions", i.e.
	// across taken branches; this models a conventional fetch unit).
	FetchBreakOnTaken bool
	// RecordTimeline captures a per-instruction pipeline timeline
	// (retrievable via Timeline) — intended for small programs. Pure
	// observation: cycle-for-cycle timing is unchanged, so it is excluded
	// from Key (cached Stats stay valid either way).
	RecordTimeline bool
	// CheckInvariants arms the cycle-level invariant checker (see
	// invariants.go): Run fails on the first violated pipeline invariant.
	// A verification instrument for tests and the differential harness —
	// it adds per-cycle ROB scans, so it stays off outside of them.
	// Observational only, like RecordTimeline: excluded from Key.
	CheckInvariants bool
	// NoCycleSkip disables idle-cycle skipping (the event-driven fast
	// path that jumps over cycles on which commit, issue, dispatch and
	// fetch are all provably blocked). Skipping is timing-neutral — the
	// differential harness asserts identical cycle counts with it on and
	// off — so this exists for that assertion and for debugging. Skipping
	// is also disabled automatically by CheckInvariants or RecordTimeline,
	// which observe individual idle cycles.
	NoCycleSkip bool

	// Scheduler describes the dispatch/issue structure declaratively.
	// Spec-built configurations can be fingerprinted (Key) and therefore
	// memoized across runs.
	Scheduler *core.SchedulerSpec
	// NewScheduler builds the dispatch/issue structure for a run, sized
	// by the machine's MaxInFlight and PhysRegs. It is the escape hatch
	// for custom schedulers; when set it takes precedence over Scheduler
	// and makes the configuration opaque to the run cache.
	NewScheduler func(core.Bounds) core.Scheduler
	// Predictor selects the direction predictor by name: "gshare" (the
	// paper's 4K-counter, 12-bit-history default, also chosen by ""),
	// "bimodal" or "taken". Ignored under PerfectBPred.
	Predictor string
	// DCache is the data cache geometry; zero value selects the paper's
	// baseline cache.
	DCache cache.Config
	// ICache, when non-nil, models an instruction cache: a fetch cycle
	// touching a new line that misses stalls fetch for the miss penalty.
	// Nil is the paper's perfect instruction cache (Table 3).
	ICache *cache.Config
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.NewScheduler == nil && c.Scheduler == nil:
		return fmt.Errorf("pipeline: %s: no scheduler (Scheduler and NewScheduler both nil)", c.Name)
	case c.FetchWidth <= 0 || c.DecodeWidth <= 0 || c.IssueWidth <= 0 || c.RetireWidth <= 0:
		return fmt.Errorf("pipeline: %s: non-positive width", c.Name)
	case c.MaxInFlight <= 0 || c.PhysRegs <= isa.NumRegs:
		return fmt.Errorf("pipeline: %s: in-flight %d / physical registers %d too small", c.Name, c.MaxInFlight, c.PhysRegs)
	case c.Clusters <= 0 || c.FUsPerCluster <= 0 || c.LSPorts <= 0:
		return fmt.Errorf("pipeline: %s: malformed execution core", c.Name)
	case c.FrontEndDepth < 0 || c.FetchQueueSize <= 0:
		return fmt.Errorf("pipeline: %s: malformed front end", c.Name)
	}
	return nil
}

// Stats aggregates one run. A new simulated counter is a uint64 field
// listed in counters as well; TestCountersCoverStats enforces that.
type Stats struct {
	Config    string
	Workload  string
	Cycles    int64
	Committed uint64

	// EmuSteps counts dynamic instructions drawn from the execution
	// source: functional-emulator steps in lockstep mode, trace records
	// in replay mode. Identical between
	// the two modes for the same configuration.
	EmuSteps uint64

	CondBranches uint64
	Mispredicts  uint64

	// InterClusterUops counts committed instructions that received at
	// least one operand over an inter-cluster bypass (Figure 17 bottom).
	InterClusterUops uint64

	// ForwardedLoads counts loads satisfied by store-to-load forwarding
	// (only with Config.StoreForwarding).
	ForwardedLoads uint64

	// SquashedUops is always 0: a misprediction stalls fetch, so nothing
	// is ever flushed. It stays because cebench/reference.go reads it by
	// name; the next benchmark change removes it.
	SquashedUops uint64

	// Structural stall accounting (dispatch attempts that failed).
	SchedulerStalls uint64
	PhysRegStalls   uint64
	ROBStalls       uint64

	Cache  cache.Stats
	ICache cache.Stats

	// IssuedPerCycle is the distribution of instructions issued per cycle
	// (bucket 0 counts idle-issue cycles).
	IssuedPerCycle *stats.Histogram

	// Host-performance accounting for the run itself: heap allocations
	// (runtime.MemStats.Mallocs delta) and wall-clock seconds spent
	// inside Run. Simulator metrics about the simulator, not the
	// simulated machine.
	HostAllocs      uint64
	HostWallSeconds float64
}

// counter is one simulated uint64 counter of Stats: its name in
// error messages, and where it lives.
type counter struct {
	name string
	of   func(*Stats) *uint64
}

// counters lists every simulated uint64 counter of Stats, cache
// counters included, once. SubStats, WeightStats and DiffStats loop over
// it, so a counter added here is cut out of warmups, scaled into phase
// estimates and compared by the verifiers with no further edit.
// TestCountersCoverStats fails on a numeric Stats field that is neither
// listed here nor simulated time (Cycles) or host telemetry.
var counters = [...]counter{
	{"committed", func(s *Stats) *uint64 { return &s.Committed }},
	{"emu steps", func(s *Stats) *uint64 { return &s.EmuSteps }},
	{"cond branches", func(s *Stats) *uint64 { return &s.CondBranches }},
	{"mispredicts", func(s *Stats) *uint64 { return &s.Mispredicts }},
	{"inter-cluster uops", func(s *Stats) *uint64 { return &s.InterClusterUops }},
	{"forwarded loads", func(s *Stats) *uint64 { return &s.ForwardedLoads }},
	{"squashed uops", func(s *Stats) *uint64 { return &s.SquashedUops }},
	{"scheduler stalls", func(s *Stats) *uint64 { return &s.SchedulerStalls }},
	{"physreg stalls", func(s *Stats) *uint64 { return &s.PhysRegStalls }},
	{"rob stalls", func(s *Stats) *uint64 { return &s.ROBStalls }},
	{"dcache accesses", func(s *Stats) *uint64 { return &s.Cache.Accesses }},
	{"dcache misses", func(s *Stats) *uint64 { return &s.Cache.Misses }},
	{"dcache writebacks", func(s *Stats) *uint64 { return &s.Cache.Writebacks }},
	{"icache accesses", func(s *Stats) *uint64 { return &s.ICache.Accesses }},
	{"icache misses", func(s *Stats) *uint64 { return &s.ICache.Misses }},
	{"icache writebacks", func(s *Stats) *uint64 { return &s.ICache.Writebacks }},
}

// DiffStats reports the first statistic on which got diverges from
// want: the configuration and workload labels, cycles, every counter,
// then every issue-histogram bucket. Host telemetry is exempt — it
// measures the runs themselves, which legitimately differ.
func DiffStats(got, want Stats) error {
	if got.Config != want.Config {
		return fmt.Errorf("config = %q, want %q", got.Config, want.Config)
	}
	if got.Workload != want.Workload {
		return fmt.Errorf("workload = %q, want %q", got.Workload, want.Workload)
	}
	if got.Cycles != want.Cycles {
		return fmt.Errorf("cycles = %d, want %d", got.Cycles, want.Cycles)
	}
	for _, c := range counters {
		if g, w := *c.of(&got), *c.of(&want); g != w {
			return fmt.Errorf("%s = %d, want %d", c.name, g, w)
		}
	}
	gh, wh := got.IssuedPerCycle, want.IssuedPerCycle
	for v := 0; v <= max(gh.Max(), wh.Max()); v++ {
		if g, w := gh.Count(v), wh.Count(v); g != w {
			return fmt.Errorf("issue histogram bucket %d = %d, want %d", v, g, w)
		}
	}
	return nil
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.CondBranches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.CondBranches)
}

// InterClusterFrequency returns the fraction of committed instructions
// that exercised an inter-cluster bypass.
func (s Stats) InterClusterFrequency() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.InterClusterUops) / float64(s.Committed)
}

const neverReady = math.MaxInt64

// regWriteDelay is the number of cycles after completion for a result to
// be written into a cluster's register file; consumers issuing before then
// read the value from the bypass network (used only for the inter-cluster
// bypass statistic).
const regWriteDelay = 2

// Simulator times one program on one configuration.
type Simulator struct {
	cfg Config
	// Exactly one of machine and reader feeds fetch: machine is the
	// functional emulator in lockstep mode (New), reader the trace cursor
	// in replay mode (NewReplay). Fetch calls the set one directly, as
	// hundreds of millions of per-instruction calls make interface
	// dispatch measurable.
	machine *emu.Machine
	reader  *trace.Reader
	sched   core.Scheduler
	pred    bpred.Predictor
	dcache  *cache.Cache
	rt      *rename.Table

	cycle int64
	seq   uint64

	fetchQ ring.Buffer[*core.Uop]
	rob    ring.Buffer[*core.Uop]

	// pool recycles Uops at commit so the steady state
	// allocates nothing per fetched instruction.
	pool core.UopPool

	// regReady[c*nPhys+p]: first cycle at which an instruction issuing in
	// cluster c may consume physical register p (flattened to one
	// allocation: operandsReady probes it per source per candidate per
	// cycle, the hottest loads in the simulator).
	regReady []int64
	nPhys    int
	nClus    int
	// bypassTab[from*nClus+to] precomputes bypassExtra for every cluster
	// pair; the geometry is fixed at construction.
	bypassTab []int64
	// prodCluster/prodComplete: who produced p and when (for the
	// inter-cluster bypass statistic); -1 cluster = initial value.
	prodCluster  []int8
	prodComplete []int64

	// unissuedStores holds dispatched-but-unissued stores in program
	// order; head advances as stores issue (memory disambiguation:
	// loads wait for all prior store addresses).
	unissuedStores ring.Buffer[*core.Uop]

	// fast enables idle-cycle skipping (see skipAhead); set at New from
	// the configuration.
	fast bool

	// Per-issue()-call scratch state, held on the Simulator so the
	// tryIssue callback (tryIssueFn, bound once at New) captures nothing
	// and the issue loop allocates nothing.
	tryIssueFn   func(*core.Uop) bool
	fuUsed       []int
	lsUsed       int
	issuedCount  int
	storeHorizon uint64

	// redirect, when non-nil, is the mispredicted branch fetch is
	// stalled on; fetch resumes at its completion cycle.
	redirect *core.Uop

	// icache state (only with Config.ICache).
	icache            *cache.Cache
	icacheLastLine    uint32
	icacheHasLine     bool
	fetchBlockedUntil int64

	timeline []TimelineEntry

	// check is the cycle-level invariant checker (nil unless
	// Config.CheckInvariants).
	check *checker

	traceDone bool
	stats     Stats
}

// TimelineEntry is one committed instruction's trip through the pipeline
// (recorded only with Config.RecordTimeline).
type TimelineEntry struct {
	Seq     uint64
	PC      uint32
	Inst    isa.Inst
	Cluster int
	FIFO    int // FIFO the instruction was steered to, -1 for windows

	Fetch    int64
	Dispatch int64
	Issue    int64
	Complete int64
	Commit   int64
}

// sourcePC returns the PC of the next instruction the source would
// produce, for the icache probe. Fetch touches the source once per
// dynamic instruction, so the two sources are dispatched directly (here
// and inline in fetch for Step, whose Record return is too large to
// route through an extra call frame).
func (s *Simulator) sourcePC() uint32 {
	if s.machine != nil {
		return s.machine.PC()
	}
	return s.reader.PC()
}

// sourceHalted mirrors sourcePC for the end-of-stream check.
func (s *Simulator) sourceHalted() bool {
	if s.machine != nil {
		return s.machine.Halted()
	}
	return s.reader.Halted()
}

// New builds a simulator driven by lockstep functional execution of prog.
func New(cfg Config, prog *isa.Program) (*Simulator, error) {
	return newSimulator(cfg, prog, emu.New(prog), nil)
}

// NewReplay builds a simulator driven by replay of a captured trace
// instead of lockstep execution: r streams the same records the
// machine would produce, without re-executing, so a sweep runs each
// program once and times it under every configuration.
func NewReplay(cfg Config, r *trace.Reader) (*Simulator, error) {
	return newSimulator(cfg, r.Program(), nil, r)
}

// newSimulator is the shared constructor behind New and NewReplay;
// exactly one of machine and reader is non-nil.
func newSimulator(cfg Config, prog *isa.Program, machine *emu.Machine, reader *trace.Reader) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DCache == (cache.Config{}) {
		cfg.DCache = cache.Baseline()
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, err
	}
	rt, err := rename.New(cfg.PhysRegs)
	if err != nil {
		return nil, err
	}
	sched := cfg.buildScheduler()
	if sched.Clusters() != cfg.Clusters {
		return nil, fmt.Errorf("pipeline: %s: scheduler feeds %d clusters, config has %d", cfg.Name, sched.Clusters(), cfg.Clusters)
	}
	pred, err := cfg.buildPredictor()
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:          cfg,
		machine:      machine,
		reader:       reader,
		sched:        sched,
		pred:         pred,
		dcache:       dc,
		rt:           rt,
		prodCluster:  make([]int8, cfg.PhysRegs),
		prodComplete: make([]int64, cfg.PhysRegs),
	}
	if cfg.ICache != nil {
		ic, err := cache.New(*cfg.ICache)
		if err != nil {
			return nil, err
		}
		s.icache = ic
	}
	s.nPhys = cfg.PhysRegs
	s.nClus = cfg.Clusters
	s.regReady = make([]int64, cfg.Clusters*cfg.PhysRegs)
	s.bypassTab = make([]int64, cfg.Clusters*cfg.Clusters)
	for from := 0; from < cfg.Clusters; from++ {
		for to := 0; to < cfg.Clusters; to++ {
			s.bypassTab[from*cfg.Clusters+to] = s.bypassExtraSlow(from, to)
		}
	}
	for p := range s.prodCluster {
		s.prodCluster[p] = -1
		s.prodComplete[p] = math.MinInt64 / 2
	}
	s.stats.Config = cfg.Name
	s.stats.Workload = prog.Name
	s.stats.IssuedPerCycle = stats.NewHistogram(cfg.IssueWidth)
	s.fuUsed = make([]int, cfg.Clusters)
	// Size every queue once to its architectural bound, so the cycle loop
	// never allocates. A uop lives in the fetch queue (at most
	// FetchQueueSize) or the ROB (at most MaxInFlight), plus the one
	// mispredicted branch fetch may still hold after it commits (see
	// commit). Unissued stores are ROB entries.
	s.pool = core.NewUopPool(cfg.MaxInFlight + cfg.FetchQueueSize + 1)
	s.fetchQ = ring.New[*core.Uop](cfg.FetchQueueSize)
	s.rob = ring.New[*core.Uop](cfg.MaxInFlight)
	s.unissuedStores = ring.New[*core.Uop](cfg.MaxInFlight)
	s.tryIssueFn = s.tryIssue
	s.fast = !cfg.CheckInvariants && !cfg.RecordTimeline && !cfg.NoCycleSkip
	if cfg.CheckInvariants {
		s.check = &checker{s: s}
	}
	return s, nil
}

// Run simulates until the program's trace is fully committed or maxCycles
// elapse, returning the run statistics. A maxCycles of 0 means no limit.
func (s *Simulator) Run(maxCycles int64) (Stats, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startAllocs := ms.Mallocs
	startWall := time.Now() // host-performance telemetry, not simulated time
	err := s.run(maxCycles)
	s.stats.HostWallSeconds = time.Since(startWall).Seconds()
	runtime.ReadMemStats(&ms)
	s.stats.HostAllocs = ms.Mallocs - startAllocs
	if err != nil {
		return s.stats, err
	}
	s.stats.Cycles = s.cycle
	s.stats.Cache = s.dcache.Stats()
	if s.icache != nil {
		s.stats.ICache = s.icache.Stats()
	}
	if s.check != nil {
		s.check.onDone()
		if s.check.err != nil {
			return s.stats, s.check.err
		}
	}
	return s.stats, nil
}

func (s *Simulator) run(maxCycles int64) error {
	for !s.done() {
		if maxCycles > 0 && s.cycle >= maxCycles {
			return fmt.Errorf("pipeline: %s/%s: exceeded %d cycles (%d committed)",
				s.cfg.Name, s.stats.Workload, maxCycles, s.stats.Committed)
		}
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// Timeline returns the committed instructions' pipeline timelines (empty
// unless Config.RecordTimeline was set).
func (s *Simulator) Timeline() []TimelineEntry { return s.timeline }

func (s *Simulator) done() bool {
	return s.traceDone && s.fetchQ.Len() == 0 && s.rob.Len() == 0
}

// step advances one clock cycle. Stage order within the cycle — commit,
// issue, dispatch, fetch — gives dispatch→issue and fetch→dispatch the
// one-cycle latencies of the Figure 1 pipeline.
func (s *Simulator) step() error {
	if s.fast {
		s.skipAhead()
	}
	s.commit()
	s.issue()
	if err := s.dispatch(); err != nil {
		return err
	}
	if err := s.fetch(); err != nil {
		return err
	}
	if s.check != nil {
		s.check.onCycleEnd()
		if s.check.err != nil {
			return s.check.err
		}
	}
	s.cycle++
	return nil
}

// skipAhead advances s.cycle directly to the next cycle on which any
// pipeline stage can act, when every stage is provably blocked until a
// known event. The skipped cycles are pure spinning — commit finds no
// completed head, Select has no awake candidate, dispatch has nothing
// decoded, fetch is stalled — so jumping over them is timing-neutral; the
// differential harness asserts cycle counts are identical with skipping
// on and off. Conservatism is always safe: when in doubt, don't skip.
func (s *Simulator) skipAhead() {
	next := int64(math.MaxInt64)
	consider := func(c int64) {
		if c < next {
			next = c
		}
	}

	// Commit: blocked until the ROB head completes.
	if s.rob.Len() > 0 {
		u := s.rob.Front()
		if u.Issued {
			if u.CompleteCycle <= s.cycle {
				return // commit acts this cycle
			}
			consider(u.CompleteCycle)
		}
		// An unissued head is covered by the scheduler's NextWake.
	}

	// Issue: the scheduler knows its next possible candidate. (Stats
	// note: IssuedPerCycle bucket 0 entries for skipped cycles are
	// replicated below, so the histogram is preserved.)
	switch nw := s.sched.NextWake(); {
	case nw <= s.cycle:
		return // a candidate may be awake this cycle
	case nw != core.NeverWake:
		consider(nw)
	}

	// Dispatch: acts — or at least attempts and counts a stall — once the
	// fetch-queue head leaves the front-end decode stages. Skipping must
	// not swallow stall-counter increments, so any dispatchable head
	// blocks the skip.
	if s.fetchQ.Len() > 0 {
		decoded := s.fetchQ.Front().FetchCycle + int64(s.cfg.FrontEndDepth)
		if decoded <= s.cycle {
			return
		}
		consider(decoded)
	}

	// Fetch: blocked on a redirect (resumes at the branch's completion),
	// an icache miss, a full fetch queue (commit events above cover the
	// drain), or the trace end.
	if s.redirect != nil {
		if s.redirect.Issued {
			if s.redirect.CompleteCycle <= s.cycle {
				return
			}
			consider(s.redirect.CompleteCycle)
		}
		// Unissued redirect: bounded by the scheduler's NextWake.
	} else if !s.traceDone && s.fetchQ.Len() < s.cfg.FetchQueueSize {
		if s.fetchBlockedUntil <= s.cycle {
			return // fetch acts this cycle
		}
		consider(s.fetchBlockedUntil)
	}

	if next == int64(math.MaxInt64) || next <= s.cycle {
		return
	}
	// Cycles s.cycle .. next-1 would each execute as pure idle cycles:
	// account them in the histogram (bucket 0) and in the cycle count,
	// then let step run the first actionable cycle.
	s.stats.IssuedPerCycle.AddN(0, uint64(next-s.cycle))
	s.cycle = next
}

// commit retires completed instructions in program order.
func (s *Simulator) commit() {
	n := 0
	for n < s.cfg.RetireWidth && s.rob.Len() > 0 {
		u := s.rob.Front()
		if !u.Issued || s.cycle < u.CompleteCycle {
			break
		}
		if u.Class == isa.ClassStore {
			// The write is performed at commit (write-back cache model);
			// its latency is off the critical path.
			s.dcache.Access(u.Rec.Addr, true)
			// A committing store is the oldest in flight, so if it is
			// still in the unissued-store queue it is the (issued) head
			// the next issue() would pop anyway; pop it now so the queue
			// never outlives a recycled uop.
			if s.unissuedStores.Len() > 0 && s.unissuedStores.Front() == u {
				s.unissuedStores.PopFront()
			}
		}
		s.rt.Release(u.OldDest)
		if u.UsedInterClusterBypass {
			s.stats.InterClusterUops++
		}
		if s.cfg.RecordTimeline {
			s.timeline = append(s.timeline, TimelineEntry{
				Seq:      u.Seq,
				PC:       u.Rec.PC,
				Inst:     u.Rec.Inst,
				Cluster:  u.Cluster,
				FIFO:     u.FIFO,
				Fetch:    u.FetchCycle,
				Dispatch: u.DispatchCycle,
				Issue:    u.IssueCycle,
				Complete: u.CompleteCycle,
				Commit:   s.cycle,
			})
		}
		s.rob.PopFront()
		s.stats.Committed++
		n++
		if s.check != nil {
			s.check.onCommit(u)
		}
		// Recycle unless fetch still holds the uop as its redirect (the
		// mispredicted branch can retire before fetch resumes; fetch
		// recycles it when the redirect clears).
		if u != s.redirect {
			s.pool.Put(u)
		}
	}
}

// bypassExtra returns the additional cycles before a value produced in
// cluster `from` is consumable in cluster `to`, beyond the producer's
// completion (precomputed per cluster pair at construction).
func (s *Simulator) bypassExtra(from, to int) int64 {
	return s.bypassTab[from*s.nClus+to]
}

// bypassExtraSlow derives one bypassTab entry from the configuration.
func (s *Simulator) bypassExtraSlow(from, to int) int64 {
	extra := int64(0)
	if from == to {
		extra = int64(s.cfg.LocalBypassExtra)
	} else if s.cfg.RingTopology {
		hops := (to - from + s.cfg.Clusters) % s.cfg.Clusters
		extra = int64(s.cfg.InterClusterDelay) * int64(hops)
	} else {
		extra = int64(s.cfg.InterClusterDelay)
	}
	if s.cfg.PipelinedWakeupSelect {
		extra++
	}
	return extra
}

// issue performs wakeup+select: the scheduler offers candidates in
// priority order and the pipeline issues those whose operands and
// resources are available.
func (s *Simulator) issue() {
	// Memory disambiguation horizon: a load may issue only if every older
	// store has issued (its address is then known).
	for s.unissuedStores.Len() > 0 && s.unissuedStores.Front().Issued {
		s.unissuedStores.PopFront()
	}
	s.storeHorizon = uint64(math.MaxUint64)
	if s.unissuedStores.Len() > 0 {
		s.storeHorizon = s.unissuedStores.Front().Seq
	}

	for c := range s.fuUsed {
		s.fuUsed[c] = 0
	}
	s.lsUsed = 0
	s.issuedCount = 0

	s.sched.Select(s.cycle, s.tryIssueFn)
	s.stats.IssuedPerCycle.Add(s.issuedCount)
}

// tryIssue is the Select callback: it applies the per-cycle issue gates
// (width, ports, store horizon, functional units, operand readiness) and
// performs the issue when they pass. Rejection has no side effects, so
// the scheduler may offer any superset of the issuable candidates.
func (s *Simulator) tryIssue(u *core.Uop) bool {
	if s.issuedCount >= s.cfg.IssueWidth {
		return false
	}
	isMem := u.Class == isa.ClassLoad || u.Class == isa.ClassStore
	if isMem && s.lsUsed >= s.cfg.LSPorts {
		return false
	}
	if u.Class == isa.ClassLoad && u.Seq > s.storeHorizon {
		return false
	}
	c := u.Cluster
	if c < 0 {
		// Execution-driven steering: place the instruction in the
		// first cluster (static order) where its operands are ready
		// and a functional unit is free.
		c = s.pickCluster(u, s.fuUsed)
		if c < 0 {
			return false
		}
		u.Cluster = c
	} else {
		if s.fuUsed[c] >= s.cfg.FUsPerCluster {
			return false
		}
		if !s.operandsReady(u, c) {
			return false
		}
	}

	latency := 1
	if u.Class == isa.ClassLoad {
		if s.cfg.StoreForwarding && s.forwardingStore(u) {
			latency = s.cfg.DCache.HitCycles
			s.stats.ForwardedLoads++
		} else {
			latency, _ = s.dcache.Access(u.Rec.Addr, false)
		}
	}
	u.Issued = true
	u.IssueCycle = s.cycle
	u.CompleteCycle = s.cycle + int64(latency)
	if s.nClus > 1 {
		// A single cluster has no inter-cluster bypass paths to note, and
		// its producer bookkeeping would never be read.
		s.noteBypasses(u, c)
	}
	if u.PhysDest >= 0 {
		d := int(u.PhysDest)
		minReady := int64(math.MaxInt64)
		for k := 0; k < s.nClus; k++ {
			rc := u.CompleteCycle + s.bypassTab[c*s.nClus+k]
			s.regReady[k*s.nPhys+d] = rc
			if rc < minReady {
				minReady = rc
			}
		}
		if s.nClus > 1 {
			s.prodCluster[u.PhysDest] = int8(c)
			s.prodComplete[u.PhysDest] = u.CompleteCycle
		}
		// Wake consumers waiting on this result; the bound is the
		// nearest-cluster readiness (tryIssue still checks the issuing
		// cluster's own readiness).
		s.sched.Wakeup(u.PhysDest, minReady)
	}
	s.fuUsed[c]++
	s.issuedCount++
	if isMem {
		s.lsUsed++
	}
	if s.check != nil {
		s.check.onIssue(u, c, isMem)
	}
	return true
}

// operandsReady reports whether every source of u is consumable in
// cluster c this cycle.
func (s *Simulator) operandsReady(u *core.Uop, c int) bool {
	base := c * s.nPhys
	for _, p := range u.PhysSrcs {
		if p >= 0 && s.regReady[base+int(p)] > s.cycle {
			return false
		}
	}
	return true
}

// pickCluster implements execution-driven steering (Section 5.6.1):
// clusters are tried in static order, so ties go to cluster 0.
func (s *Simulator) pickCluster(u *core.Uop, fuUsed []int) int {
	for c := 0; c < s.cfg.Clusters; c++ {
		if fuUsed[c] < s.cfg.FUsPerCluster && s.operandsReady(u, c) {
			return c
		}
	}
	return -1
}

// noteBypasses records whether u consumed any operand over an
// inter-cluster bypass path: the producer ran in another cluster and the
// value had not yet been written into this cluster's register file.
func (s *Simulator) noteBypasses(u *core.Uop, c int) {
	for _, p := range u.PhysSrcs {
		if p < 0 {
			continue
		}
		pc := s.prodCluster[p]
		if pc < 0 || int(pc) == c {
			continue
		}
		arrival := s.prodComplete[p] + s.bypassExtra(int(pc), c)
		if s.cycle < arrival+regWriteDelay {
			u.UsedInterClusterBypass = true
			return
		}
	}
}

// forwardingStore reports whether an older in-flight store writes the
// load's word. The load's issue is already gated on all older store
// addresses being known, so the in-order ROB scan is sound.
func (s *Simulator) forwardingStore(load *core.Uop) bool {
	word := load.Rec.Addr >> 2
	for i := s.rob.Len() - 1; i >= 0; i-- {
		st := s.rob.At(i)
		if st.Seq >= load.Seq || st.Class != isa.ClassStore {
			continue
		}
		if st.Rec.Addr>>2 == word {
			return true
		}
	}
	return false
}

// dispatch renames and inserts fetched instructions into the scheduler.
func (s *Simulator) dispatch() error {
	for n := 0; n < s.cfg.DecodeWidth && s.fetchQ.Len() > 0; n++ {
		u := s.fetchQ.Front()
		if u.FetchCycle+int64(s.cfg.FrontEndDepth) > s.cycle {
			break // still in decode/rename stages
		}
		if s.rob.Len() >= s.cfg.MaxInFlight {
			s.stats.ROBStalls++
			break
		}
		r0, r1, nSrcs := u.Rec.Inst.SourceRegs()
		srcRegs := [2]isa.Reg{r0, r1}
		dest, hasDest := u.Rec.Inst.Dest()
		physSrcs, physDest, oldDest, ok := s.rt.Rename(u.PhysSrcs[:0], srcRegs[:nSrcs], dest, hasDest)
		if !ok {
			s.stats.PhysRegStalls++
			break
		}
		u.PhysSrcs = physSrcs
		u.PhysDest = physDest
		u.OldDest = oldDest
		if physDest >= 0 {
			// The destination is not ready anywhere until it executes.
			for k := 0; k < s.nClus; k++ {
				s.regReady[k*s.nPhys+int(physDest)] = neverReady
			}
		}
		if !s.sched.Dispatch(u) {
			if physDest >= 0 {
				for k := 0; k < s.nClus; k++ {
					s.regReady[k*s.nPhys+int(physDest)] = 0
				}
			}
			s.rt.Undo(dest, physDest, oldDest)
			s.stats.SchedulerStalls++
			break
		}
		u.DispatchCycle = s.cycle
		s.rob.PushBack(u)
		if u.Class == isa.ClassStore {
			s.unissuedStores.PushBack(u)
		}
		s.fetchQ.PopFront()
	}
	return nil
}

// fetch pulls instructions from the functional emulator. Fetch stalls on a
// mispredicted conditional branch until the branch executes (trace-driven
// misprediction model: the wrong path is not executed, its fetch slots are
// simply lost).
func (s *Simulator) fetch() error {
	if s.redirect != nil {
		if !s.redirect.Issued || s.cycle < s.redirect.CompleteCycle {
			return nil
		}
		// If the branch already retired, commit left it for fetch to
		// recycle; if it is still in the ROB, commit will recycle it.
		if s.redirect.Issued && s.stats.Committed > s.redirect.Seq {
			s.pool.Put(s.redirect)
		}
		s.redirect = nil
	}
	if s.cycle < s.fetchBlockedUntil {
		return nil
	}
	for n := 0; n < s.cfg.FetchWidth; n++ {
		if s.traceDone || s.fetchQ.Len() >= s.cfg.FetchQueueSize {
			return nil
		}
		if s.icache != nil {
			// Probe the next instruction's line before consuming it, so a
			// miss stalls fetch without losing the instruction.
			pc := s.sourcePC()
			line := pc * 4 / uint32(s.cfg.ICache.LineBytes)
			if !s.icacheHasLine || line != s.icacheLastLine {
				lat, hit := s.icache.Access(pc*4, false)
				s.icacheLastLine = line
				s.icacheHasLine = true
				if !hit {
					s.fetchBlockedUntil = s.cycle + int64(lat-s.cfg.ICache.HitCycles)
					return nil
				}
			}
		}
		// See sourcePC: monomorphic source dispatch, inlined so the Record
		// is written straight into the uop rather than copied through a
		// helper (Reader.Next says what that copy costs).
		u := s.pool.Get()
		var err error
		if s.machine != nil {
			u.Rec, err = s.machine.Step()
		} else {
			err = s.reader.Next(&u.Rec)
		}
		if err != nil {
			s.pool.Put(u)
			return fmt.Errorf("pipeline: %s/%s: functional emulation: %w", s.cfg.Name, s.stats.Workload, err)
		}
		s.stats.EmuSteps++
		rec := &u.Rec
		u.Seq = s.seq
		u.Class = isa.ClassOf(rec.Inst.Op)
		u.FetchCycle = s.cycle
		u.Cluster = -1
		u.FIFO = -1
		s.seq++
		s.fetchQ.PushBack(u)
		if s.sourceHalted() {
			s.traceDone = true
		}
		if u.Class == isa.ClassBranch {
			s.stats.CondBranches++
			if !s.cfg.PerfectBPred {
				predTaken := s.pred.Predict(rec.PC)
				s.pred.Update(rec.PC, rec.Taken)
				if predTaken != rec.Taken {
					s.stats.Mispredicts++
					u.Mispredicted = true
					s.redirect = u
					return nil
				}
			}
		}
		if s.cfg.FetchBreakOnTaken && rec.Taken {
			return nil
		}
	}
	return nil
}

// Machine exposes the underlying functional machine (for output checks in
// tests and examples). Nil for replay-driven simulators; Output and
// StateHash work in both modes.
func (s *Simulator) Machine() *emu.Machine { return s.machine }

// Output returns the program output produced by the execution source
// (complete once the run has finished).
func (s *Simulator) Output() []int32 {
	if s.machine != nil {
		return s.machine.Output
	}
	return s.reader.Output()
}

// StateHash returns the final architectural digest of the executed (or
// replayed) program.
func (s *Simulator) StateHash() [32]byte {
	if s.machine != nil {
		return s.machine.StateHash()
	}
	return s.reader.StateHash()
}

// Scheduler exposes the scheduler (for diagnostics).
func (s *Simulator) Scheduler() core.Scheduler { return s.sched }
