package core

import (
	"fmt"
	"testing"
)

// splitmix is the test's seeded source of choices (the package is
// deterministic, so it keeps its own generator).
type splitmix uint64

func (r *splitmix) Intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

// refEntry is the reference scheduler's view of one buffered uop.
type refEntry struct {
	u       *Uop
	pending map[int16]bool // distinct sources whose producer has not issued
	wake    int64
}

// refSched is a brute-force reference for the scheduler structures: it
// keeps buffered uops in a Seq-ordered list and, every cycle, scans all
// of them for the ones with no pending source, a wake cycle that has
// arrived and — on head-only FIFO machines — no older uop in their FIFO.
type refSched struct {
	entries   []*refEntry
	regWake   []int64 // regPending or the producer's ready cycle
	headsOnly bool
	random    bool
	rng       int32
}

func (r *refSched) dispatch(u *Uop) {
	e := &refEntry{u: u, pending: map[int16]bool{}}
	for _, p := range u.PhysSrcs {
		if p < 0 {
			continue
		}
		if r.regWake[p] == regPending {
			e.pending[p] = true
		} else if r.regWake[p] > e.wake {
			e.wake = r.regWake[p]
		}
	}
	if u.PhysDest >= 0 {
		r.regWake[u.PhysDest] = regPending
	}
	r.entries = append(r.entries, e)
}

func (r *refSched) ready(e *refEntry, now int64) bool {
	return len(e.pending) == 0 && e.wake <= now
}

// candidates lists, at the start of cycle now, the uops Select must
// offer, in the order it must offer them.
func (r *refSched) candidates(now int64) []*Uop {
	var out []*Uop
	if r.random {
		for _, e := range r.entries {
			out = append(out, e.u)
		}
		for i := len(out) - 1; i > 0; i-- {
			r.rng = r.rng*1103515245 + 12345
			j := int(uint32(r.rng)>>16) % (i + 1)
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	head := map[int]bool{}
	for _, e := range r.entries {
		isHead := !head[e.u.FIFO]
		head[e.u.FIFO] = true
		if r.ready(e, now) && (!r.headsOnly || isHead) {
			out = append(out, e.u)
		}
	}
	return out
}

func (r *refSched) find(u *Uop) *refEntry {
	for _, e := range r.entries {
		if e.u == u {
			return e
		}
	}
	return nil
}

func (r *refSched) remove(u *Uop) {
	for i, e := range r.entries {
		if e.u == u {
			r.entries = append(r.entries[:i], r.entries[i+1:]...)
			return
		}
	}
}

func (r *refSched) wakeup(p int16, rc int64) {
	r.regWake[p] = rc
	for _, e := range r.entries {
		if e.pending[p] {
			delete(e.pending, p)
			if rc > e.wake {
				e.wake = rc
			}
		}
	}
}

// earliest is the first cycle any buffered uop could be ready.
func (r *refSched) earliest() int64 {
	m := NeverWake
	for _, e := range r.entries {
		if len(e.pending) == 0 && e.wake < m {
			m = e.wake
		}
	}
	return m
}

// TestSchedulerMatchesReference drives every scheduler kind and the
// brute-force reference through the same seeded dispatch, wakeup,
// and select sequence. Each cycle both must offer the same
// candidates in the same order, and NextWake must never be later than
// the reference's earliest wake. Sources include registers read twice,
// and the exec-steered window's uops leave dispatch with no cluster.
func TestSchedulerMatchesReference(t *testing.T) {
	const physRegs = 48
	type kind struct {
		name      string
		headsOnly bool
		random    bool
		build     func(capacity int, b Bounds) Scheduler
	}
	geometry := map[int][2]int{8: {2, 4}, 64: {8, 8}, 65: {5, 13}, 128: {16, 8}}
	bank := func(anySlot bool, policy SteerPolicy) func(int, Bounds) Scheduler {
		return func(capacity int, b Bounds) Scheduler {
			g := geometry[capacity]
			return NewFIFOBank(FIFOBankConfig{Name: "bank", Clusters: 1, FIFOsPerCluster: g[0], Depth: g[1],
				AnySlot: anySlot, Policy: policy}, b)
		}
	}
	kinds := []kind{
		{"window", false, false, func(n int, b Bounds) Scheduler { return NewCentralWindow(n, b) }},
		{"exec-steered", false, false, func(n int, b Bounds) Scheduler { return NewExecSteeredWindow(n, 2, b) }},
		{"random-select", false, true, func(n int, b Bounds) Scheduler { return NewRandomSelectWindow(n, b) }},
		{"fifos-heads", true, false, bank(false, SteerDependence)},
		// Random steering queues independent uops behind one another, so
		// a head's issue can expose an awake uop: it must still wait for
		// the next cycle.
		{"fifos-heads-random-steer", true, false, bank(false, SteerRandom)},
		{"fifos-any-slot", false, false, bank(true, SteerDependence)},
		{"fifos-random-steer", false, false, bank(true, SteerRandom)},
	}
	for _, k := range kinds {
		for _, capacity := range []int{8, 64, 65, 128} {
			for _, inFlight := range []int{capacity, capacity + 37} {
				name := fmt.Sprintf("%s/cap%d/inflight%d", k.name, capacity, inFlight)
				t.Run(name, func(t *testing.T) {
					b := Bounds{InFlight: inFlight, PhysRegs: physRegs}
					sched := k.build(capacity, b)
					ref := &refSched{regWake: make([]int64, physRegs), headsOnly: k.headsOnly, random: k.random, rng: 424243}
					diffRun(t, sched, ref, k.name == "exec-steered", inFlight, int64(len(name)))
				})
			}
		}
	}
}

// diffRun is one seeded lockstep run of sched against ref.
func diffRun(t *testing.T, sched Scheduler, ref *refSched, execSteered bool, inFlight int, seed int64) {
	rng := splitmix(seed)
	physRegs := len(ref.regWake)
	var nextSeq uint64
	for now := int64(0); now < 1500; now++ {
		want := ref.candidates(now)
		var offered []*Uop
		var woken [][2]int64
		sched.Select(now, func(u *Uop) bool {
			offered = append(offered, u)
			e := ref.find(u)
			// Like the pipeline, accept only uops whose operands are ready,
			// and not all of those.
			if e == nil || !ref.ready(e, now) || rng.Intn(3) == 0 {
				return false
			}
			if execSteered {
				u.Cluster = int(u.Seq % 2)
			}
			if u.PhysDest >= 0 {
				rc := now + 1 + int64(rng.Intn(4))
				sched.Wakeup(u.PhysDest, rc)
				woken = append(woken, [2]int64{int64(u.PhysDest), rc})
			}
			ref.remove(u)
			return true
		})
		if !sameUops(offered, want) {
			t.Fatalf("cycle %d: offered %v, reference %v", now, seqs(offered), seqs(want))
		}
		for _, w := range woken {
			ref.wakeup(int16(w[0]), w[1])
		}

		for n := rng.Intn(5); n > 0; n-- {
			if len(ref.entries) > 0 && nextSeq-ref.entries[0].u.Seq >= uint64(inFlight) {
				break // the reorder buffer would be full
			}
			u := &Uop{Seq: nextSeq, PhysDest: -1, Cluster: 7, FIFO: -1}
			for s := rng.Intn(4); s > 0; s-- {
				u.PhysSrcs = append(u.PhysSrcs, int16(rng.Intn(physRegs)))
			}
			if len(u.PhysSrcs) > 0 && rng.Intn(4) == 0 {
				u.PhysSrcs = append(u.PhysSrcs, u.PhysSrcs[0]) // e.g. add r1,r2,r2
			}
			if rng.Intn(5) > 0 {
				d := int16(rng.Intn(physRegs))
				if ref.regWake[d] != regPending {
					u.PhysDest = d
				}
			}
			if !sched.Dispatch(u) {
				break
			}
			if execSteered && u.Cluster != -1 {
				t.Fatalf("exec-steered uop %d assigned cluster %d at dispatch", u.Seq, u.Cluster)
			}
			ref.dispatch(u)
			nextSeq++
		}

		if sched.Len() != len(ref.entries) {
			t.Fatalf("cycle %d: Len %d, reference holds %d", now, sched.Len(), len(ref.entries))
		}
		if nw, e := sched.NextWake(), ref.earliest(); nw > e {
			t.Fatalf("cycle %d: NextWake %d later than the reference's earliest wake %d", now, nw, e)
		}
	}
}

func sameUops(a, b []*Uop) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func seqs(us []*Uop) []uint64 {
	out := make([]uint64, len(us))
	for i, u := range us {
		out[i] = u.Seq
	}
	return out
}
