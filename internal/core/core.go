// Package core implements the paper's primary contribution and its design
// space: the dependence-based instruction scheduler of Section 5 (chains of
// dependent instructions steered into in-order FIFOs), the conventional
// central issue window it is compared against, and the Section 5.6
// alternatives (window-per-cluster dispatch steering, execution-driven
// steering, random steering).
//
// A Scheduler owns the buffering between dispatch and issue and decides
// candidate order; the timing pipeline (package pipeline) owns operand
// readiness, functional units and ports, and calls back into the scheduler
// each cycle to select instructions.
//
// Everything here is bit-for-bit deterministic: the "random" steering and
// selection policies draw from fixed-seed LCG streams, never the host.
package core

import (
	"repro/internal/emu"
	"repro/internal/isa"
)

// Uop is one in-flight instruction. The scheduler reads the identity and
// dependence fields; the timing fields are owned by the pipeline.
type Uop struct {
	// Seq is the global program-order sequence number.
	Seq uint64
	// Rec is the dynamic instruction (with resolved outcome) being timed.
	Rec emu.Record
	// Class caches isa.ClassOf(Rec.Inst.Op).
	Class isa.Class

	// PhysSrcs and PhysDest are the renamed operands (rename.None if
	// absent). OldDest is freed when the uop commits.
	PhysSrcs []int16
	PhysDest int16
	OldDest  int16

	// Cluster is the execution cluster, assigned at dispatch for
	// dispatch-driven steering or left as -1 for execution-driven
	// steering (the pipeline assigns it at issue).
	Cluster int
	// FIFO is the index of the FIFO holding the uop, or -1.
	FIFO int

	// Timing state, owned by the pipeline.
	FetchCycle    int64
	DispatchCycle int64
	IssueCycle    int64
	CompleteCycle int64
	Issued        bool
	Completed     bool
	// Mispredicted marks a conditional branch whose predicted direction
	// was wrong; fetch stalls until it resolves.
	Mispredicted bool
	// UsedInterClusterBypass marks that at least one operand arrived over
	// an inter-cluster bypass path (Figure 17, bottom).
	UsedInterClusterBypass bool
}

// Scheduler buffers renamed instructions until they issue.
//
// The pipeline calls Dispatch in program order; false means a structural
// stall (window full, no free FIFO, FIFO full) and the pipeline retries
// next cycle. Each cycle the pipeline calls Select with the current cycle
// and a tryIssue callback; the scheduler offers candidates in
// selection-priority order (the paper's position/age-based policy) and
// removes a candidate when tryIssue accepts it. tryIssue is only called
// for uops the scheduler is prepared to issue, and a true return means
// the uop has issued.
//
// Wakeup and NextWake support the event-driven issue loop: a dispatched
// uop's destination register is pending until the pipeline reports its
// producer's issue via Wakeup, and NextWake lets the pipeline skip cycles
// on which Select provably cannot offer a candidate.
type Scheduler interface {
	Name() string
	// Clusters reports how many execution clusters the scheduler feeds.
	Clusters() int
	Dispatch(u *Uop) bool
	Select(now int64, tryIssue func(u *Uop) bool)
	// Wakeup notes that the producer of physical register p has issued
	// and its result becomes consumable — in the nearest cluster — at
	// readyCycle. The pipeline calls it once per issued uop with a
	// destination, before that uop's consumers can issue.
	Wakeup(p int16, readyCycle int64)
	// NextWake returns a lower bound on the next cycle Select may offer a
	// candidate: WakeNow when a candidate is already awake, the earliest
	// pending wake cycle otherwise, and NeverWake when empty.
	NextWake() int64
	// Len reports current occupancy.
	Len() int
	// Capacity reports total buffering capacity.
	Capacity() int
}

// CentralWindow is the conventional flexible issue window: any entry whose
// operands are ready may issue, selected oldest first. With AssignAtIssue
// it models the Section 5.6.1 organization: a single window feeding
// multiple clusters, with the cluster chosen when execution begins.
type CentralWindow struct {
	size          int
	clusters      int
	assignAtIssue bool
	randomSelect  bool
	rng           int32
	occupancy     int
	t             slots
}

// NewCentralWindow builds a single-cluster window of the given size; every
// instruction is assigned to cluster 0 at dispatch.
func NewCentralWindow(size int, b Bounds) *CentralWindow {
	return &CentralWindow{size: size, clusters: 1, t: newSlots(b)}
}

// NewExecSteeredWindow builds the Section 5.6.1 organization: one central
// window of the given size feeding `clusters` clusters, with cluster
// assignment made by the pipeline at issue time (execution-driven
// steering).
func NewExecSteeredWindow(size, clusters int, b Bounds) *CentralWindow {
	return &CentralWindow{size: size, clusters: clusters, assignAtIssue: true, t: newSlots(b)}
}

// NewRandomSelectWindow builds a single-cluster window whose selection
// policy is *random* rather than position-based. Butler & Patt (cited in
// Section 4.3) found overall performance largely independent of the
// selection policy; this scheduler exists to ablate that claim.
func NewRandomSelectWindow(size int, b Bounds) *CentralWindow {
	return &CentralWindow{size: size, clusters: 1, randomSelect: true, rng: 424243, t: newSlots(b)}
}

// Name implements Scheduler.
func (w *CentralWindow) Name() string {
	switch {
	case w.assignAtIssue:
		return "central-window-exec-steer"
	case w.randomSelect:
		return "central-window-random-select"
	default:
		return "central-window"
	}
}

// Clusters implements Scheduler.
func (w *CentralWindow) Clusters() int { return w.clusters }

// Len implements Scheduler.
func (w *CentralWindow) Len() int { return w.occupancy }

// Capacity implements Scheduler.
func (w *CentralWindow) Capacity() int { return w.size }

// Dispatch implements Scheduler.
func (w *CentralWindow) Dispatch(u *Uop) bool {
	if w.occupancy >= w.size {
		return false
	}
	if w.assignAtIssue {
		u.Cluster = -1
	} else {
		u.Cluster = 0
	}
	w.t.insert(u)
	w.occupancy++
	return true
}

// Select implements Scheduler. Awake candidates are offered in dispatch
// (age) order, which is the paper's position-based selection policy; with
// random selection every entry is a candidate and the age-ordered list
// is shuffled deterministically each cycle.
func (w *CentralWindow) Select(now int64, tryIssue func(u *Uop) bool) {
	if !w.randomSelect {
		w.t.promote(now)
		w.occupancy -= len(w.t.offer(w.t.awake, tryIssue))
		return
	}
	order := w.t.ageOrder(w.t.occupied)
	for i := len(order) - 1; i > 0; i-- {
		w.rng = w.rng*1103515245 + 12345
		j := int(uint32(w.rng)>>16) % (i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, s := range order {
		if tryIssue(w.t.uop[s]) {
			w.t.remove(int(s))
			w.occupancy--
		}
	}
}

// Wakeup implements Scheduler.
func (w *CentralWindow) Wakeup(p int16, readyCycle int64) {
	w.t.wakeup(p, readyCycle)
}

// NextWake implements Scheduler. Random selection reshuffles — and
// advances its rng stream — every cycle the window is occupied, so its
// Select must run every such cycle.
func (w *CentralWindow) NextWake() int64 {
	if w.occupancy == 0 {
		return NeverWake
	}
	if w.randomSelect {
		return WakeNow
	}
	return w.t.nextWake()
}

// SteerPolicy selects how a FIFOBank routes instructions.
type SteerPolicy int

const (
	// SteerDependence is the Section 5.1 heuristic: follow the FIFO of an
	// outstanding source operand when the source is the FIFO tail,
	// otherwise take a new FIFO.
	SteerDependence SteerPolicy = iota
	// SteerRandom routes to a random cluster's buffering, falling back to
	// the other cluster if full (Section 5.6.3).
	SteerRandom
)

// fifo is one in-order queue. Queue order is age order, so its slots
// are a mask: the head is the oldest slot in it, the tail the youngest.
type fifo struct {
	cluster int
	n       int
	tail    int32
	slots   []uint64
}

// FIFOBank is the dependence-based scheduler of Section 5 and its
// windowed variants. Instructions are steered into per-cluster FIFOs at
// dispatch. With AnySlot false only FIFO heads are issue candidates (the
// paper's FIFO microarchitecture); with AnySlot true every entry is a
// candidate and the FIFO structure only shapes dispatch (the "window
// modeled as FIFOs" dispatch heuristic of Section 5.6.2).
type FIFOBank struct {
	name     string
	fifos    []fifo
	depth    int
	clusters int
	anySlot  bool
	policy   SteerPolicy

	// freeFIFOs holds indices of empty FIFOs, one pool per cluster; cur
	// is the cluster whose pool currently serves new-FIFO requests
	// (Section 5.5's modified free-list policy).
	freeFIFOs [][]int
	cur       int

	// producer maps a physical register to the slot of the uop that
	// writes it while that uop still occupies a FIFO, or -1 (the SRC_FIFO
	// table of Section 5, kept in terms of physical registers since
	// steering runs after rename).
	producer []int32

	occupancy int
	rng       int32
	t         slots
	// heads masks the slot at the head of each nonempty FIFO (kept only
	// without AnySlot); cand is Select's scratch mask of awake heads.
	heads, cand []uint64

	// StallNoFIFO counts dispatch stalls due to steering (full target
	// FIFO and no free FIFO).
	StallNoFIFO uint64
}

// FIFOBankConfig sizes a FIFOBank.
type FIFOBankConfig struct {
	Name            string
	Clusters        int
	FIFOsPerCluster int
	Depth           int
	AnySlot         bool
	Policy          SteerPolicy
}

// NewFIFOBank builds the scheduler. The paper's configurations:
//
//   - Figure 13 dependence-based: 1 cluster × 8 FIFOs × 8 deep, heads only.
//   - Figure 15 clustered: 2 clusters × 4 FIFOs × 8 deep, heads only.
//   - Figure 17 "two windows, dispatch steering": 2 clusters × 8 FIFOs × 4
//     deep, AnySlot (each 32-entry window treated as 8 conceptual FIFOs).
//   - Figure 17 "two windows, random steering": 2 clusters × 1 FIFO × 32
//     deep, AnySlot, SteerRandom.
func NewFIFOBank(cfg FIFOBankConfig, b Bounds) *FIFOBank {
	bank := &FIFOBank{
		name:     cfg.Name,
		depth:    cfg.Depth,
		clusters: cfg.Clusters,
		anySlot:  cfg.AnySlot,
		policy:   cfg.Policy,
		rng:      10007,
		producer: make([]int32, b.PhysRegs),
		t:        newSlots(b),
	}
	for p := range bank.producer {
		bank.producer[p] = -1
	}
	bank.heads = make([]uint64, bank.t.words)
	bank.cand = make([]uint64, bank.t.words)
	bank.freeFIFOs = make([][]int, cfg.Clusters)
	words := bank.t.words
	masks := make([]uint64, cfg.Clusters*cfg.FIFOsPerCluster*words)
	for c := 0; c < cfg.Clusters; c++ {
		for i := 0; i < cfg.FIFOsPerCluster; i++ {
			k := len(bank.fifos)
			bank.fifos = append(bank.fifos, fifo{cluster: c, slots: masks[k*words : (k+1)*words]})
			bank.freeFIFOs[c] = append(bank.freeFIFOs[c], k)
		}
	}
	return bank
}

// Name implements Scheduler.
func (b *FIFOBank) Name() string { return b.name }

// Clusters implements Scheduler.
func (b *FIFOBank) Clusters() int { return b.clusters }

// Len implements Scheduler.
func (b *FIFOBank) Len() int { return b.occupancy }

// Capacity implements Scheduler.
func (b *FIFOBank) Capacity() int { return len(b.fifos) * b.depth }

// Dispatch implements Scheduler.
func (b *FIFOBank) Dispatch(u *Uop) bool {
	var fi int
	switch b.policy {
	case SteerRandom:
		fi = b.steerRandom()
	default:
		fi = b.steerDependence(u)
	}
	if fi < 0 {
		b.StallNoFIFO++
		return false
	}
	f := &b.fifos[fi]
	u.FIFO = fi
	u.Cluster = f.cluster
	s := int32(b.t.insert(u))
	f.slots[s>>6] |= 1 << (s & 63)
	if f.n == 0 && !b.anySlot {
		b.heads[s>>6] |= 1 << (s & 63)
	}
	f.n++
	f.tail = s
	b.occupancy++
	if u.PhysDest >= 0 {
		b.producer[u.PhysDest] = s
	}
	return true
}

// steerDependence implements the Section 5.1 heuristic, generalized over
// clusters with the Section 5.5 free-list policy.
func (b *FIFOBank) steerDependence(u *Uop) int {
	// Try each outstanding source operand in order: if its producer is
	// the tail of its FIFO and the FIFO has room, follow it.
	for _, ps := range u.PhysSrcs {
		if ps < 0 {
			continue
		}
		s := b.producer[ps]
		if s < 0 {
			continue // operand already computed or producer issued
		}
		fi := b.t.uop[s].FIFO
		if f := &b.fifos[fi]; f.tail == s && f.n < b.depth {
			return fi
		}
	}
	// Fall back to a new (empty) FIFO from the free pools.
	return b.allocFIFO()
}

// allocFIFO takes an empty FIFO, preferring the current cluster's pool and
// switching the current cluster when its pool is exhausted (Section 5.5).
func (b *FIFOBank) allocFIFO() int {
	for try := 0; try < b.clusters; try++ {
		pool := &b.freeFIFOs[b.cur]
		if len(*pool) > 0 {
			fi := (*pool)[len(*pool)-1]
			*pool = (*pool)[:len(*pool)-1]
			return fi
		}
		b.cur = (b.cur + 1) % b.clusters
	}
	return -1
}

// steerRandom picks a random cluster and falls back to the other(s) when
// its buffering is full (Section 5.6.3).
func (b *FIFOBank) steerRandom() int {
	b.rng = b.rng*1103515245 + 12345
	start := int(uint32(b.rng)>>16) % b.clusters
	for try := 0; try < b.clusters; try++ {
		c := (start + try) % b.clusters
		for i := range b.fifos {
			if b.fifos[i].cluster == c && b.fifos[i].n < b.depth {
				return i
			}
		}
	}
	return -1
}

// Select implements Scheduler: candidates are the awake FIFO heads (or,
// with AnySlot, all awake entries), offered oldest first. Heads are
// taken once, before any candidate issues, so an entry exposed by its
// head issuing this cycle waits for the next — the head-only semantics
// of the paper's FIFO machine.
func (b *FIFOBank) Select(now int64, tryIssue func(u *Uop) bool) {
	b.t.promote(now)
	cand := b.t.awake
	if !b.anySlot {
		for w, h := range b.heads {
			b.cand[w] = h & cand[w]
		}
		cand = b.cand
	}
	for _, s := range b.t.offer(cand, tryIssue) {
		b.dequeue(s)
	}
}

// Wakeup implements Scheduler.
func (b *FIFOBank) Wakeup(p int16, readyCycle int64) {
	b.t.wakeup(p, readyCycle)
}

// NextWake implements Scheduler. The bound ignores head-only gating (a
// non-head uop may be awake but unofferable); that only makes the bound
// conservative, never late, because a blocked awake uop implies an awake
// head in the same FIFO with an equal-or-earlier wake cycle is still
// unissued — and Select runs while any candidate is awake.
func (b *FIFOBank) NextWake() int64 {
	if b.occupancy == 0 {
		return NeverWake
	}
	return b.t.nextWake()
}

// dequeue takes an issued uop's slot out of its FIFO, exposing the next
// head, and recycles the FIFO once empty.
func (b *FIFOBank) dequeue(s int32) {
	u := b.t.uop[s]
	fi := u.FIFO
	f := &b.fifos[fi]
	b.unlink(f, s, u)
	if f.n > 0 && !b.anySlot {
		// Only heads issue, so s was the head.
		h := b.t.oldest(f.slots)
		b.heads[h>>6] |= 1 << (h & 63)
	}
	if f.n == 0 && b.policy != SteerRandom {
		b.freeFIFOs[f.cluster] = append(b.freeFIFOs[f.cluster], fi)
	}
}

// unlink removes slot s, holding u, from FIFO f and the producer table.
func (b *FIFOBank) unlink(f *fifo, s int32, u *Uop) {
	f.slots[s>>6] &^= 1 << (s & 63)
	b.heads[s>>6] &^= 1 << (s & 63)
	f.n--
	if f.n > 0 && f.tail == s {
		f.tail = b.t.youngest(f.slots)
	}
	b.occupancy--
	if u.PhysDest >= 0 && b.producer[u.PhysDest] == s {
		b.producer[u.PhysDest] = -1
	}
}

// FIFOOccupancy returns the per-FIFO queue lengths (diagnostics and the
// steering example program).
func (b *FIFOBank) FIFOOccupancy() []int {
	out := make([]int, len(b.fifos))
	for i := range b.fifos {
		out[i] = b.fifos[i].n
	}
	return out
}

// FIFOContents returns the sequence numbers queued in each FIFO, head
// first (diagnostics and the steering example program).
func (b *FIFOBank) FIFOContents() [][]uint64 {
	out := make([][]uint64, len(b.fifos))
	for i := range b.fifos {
		for _, s := range b.t.ageOrder(b.fifos[i].slots) {
			out[i] = append(out[i], b.t.uop[s].Seq)
		}
	}
	return out
}
