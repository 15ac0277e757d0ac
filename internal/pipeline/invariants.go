package pipeline

// Cycle-level invariant checking (Config.CheckInvariants). The checker
// re-derives, from independent state, the properties every machine
// organization must uphold regardless of scheduler or clustering:
//
//   - commit is in program order, contiguous, and at most RetireWidth
//     instructions per cycle;
//   - issue respects IssueWidth and LSPorts, never precedes operand
//     readiness in the issuing cluster, and never lets a load pass an
//     older store whose address is still unknown;
//   - every committed instruction's timeline is monotonic:
//     fetch (+FrontEndDepth) ≤ dispatch < issue < complete ≤ commit;
//   - the ROB never exceeds MaxInFlight and the scheduler never exceeds
//     its capacity or disagrees with the ROB about unissued instructions;
//   - physical-register allocation balances: in-flight rename allocations
//     always equal the ROB's destination-carrying instructions, and the
//     free list is whole once the pipeline drains (no leak).
//
// The checker is a verification instrument for the differential harness
// in internal/verify and the test suite; it adds per-cycle scans of the
// ROB, so it stays off the default configuration.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
)

// checker holds invariant-checking state for one simulation.
type checker struct {
	s   *Simulator
	err error

	nextCommitSeq uint64
	committed     int // this cycle
	issued        int // this cycle
	memIssued     int // this cycle
}

// failf records the first violation; later ones are suppressed (they are
// usually cascades of the first).
func (k *checker) failf(format string, args ...any) {
	if k.err != nil {
		return
	}
	prefix := fmt.Sprintf("pipeline: %s/%s: invariant violated at cycle %d: ",
		k.s.cfg.Name, k.s.stats.Workload, k.s.cycle)
	k.err = fmt.Errorf(prefix+format, args...)
}

// onCommit checks one retiring instruction.
func (k *checker) onCommit(u *core.Uop) {
	k.committed++
	if k.committed > k.s.cfg.RetireWidth {
		k.failf("committed %d instructions, retire width %d", k.committed, k.s.cfg.RetireWidth)
	}
	if u.Seq != k.nextCommitSeq {
		k.failf("out-of-order commit: uop %d, expected %d", u.Seq, k.nextCommitSeq)
	}
	k.nextCommitSeq = u.Seq + 1
	switch {
	case u.FetchCycle+int64(k.s.cfg.FrontEndDepth) > u.DispatchCycle:
		k.failf("uop %d dispatched at %d, fetched at %d (front end depth %d)",
			u.Seq, u.DispatchCycle, u.FetchCycle, k.s.cfg.FrontEndDepth)
	case u.IssueCycle <= u.DispatchCycle:
		k.failf("uop %d issued at %d, dispatched at %d", u.Seq, u.IssueCycle, u.DispatchCycle)
	case u.CompleteCycle <= u.IssueCycle:
		k.failf("uop %d completed at %d, issued at %d", u.Seq, u.CompleteCycle, u.IssueCycle)
	case u.CompleteCycle > k.s.cycle:
		k.failf("uop %d committed at %d before completing at %d", u.Seq, k.s.cycle, u.CompleteCycle)
	}
}

// onIssue checks one instruction accepted by wakeup+select, after the
// pipeline has stamped its issue and completion cycles.
func (k *checker) onIssue(u *core.Uop, cluster int, isMem bool) {
	k.issued++
	if k.issued > k.s.cfg.IssueWidth {
		k.failf("issued %d instructions, issue width %d", k.issued, k.s.cfg.IssueWidth)
	}
	if isMem {
		k.memIssued++
		if k.memIssued > k.s.cfg.LSPorts {
			k.failf("issued %d memory operations, %d load/store ports", k.memIssued, k.s.cfg.LSPorts)
		}
	}
	if u.DispatchCycle >= k.s.cycle {
		k.failf("uop %d issued in its dispatch cycle %d", u.Seq, u.DispatchCycle)
	}
	for _, p := range u.PhysSrcs {
		if p >= 0 && k.s.regReady[cluster*k.s.nPhys+int(p)] > k.s.cycle {
			k.failf("uop %d issued in cluster %d before operand p%d is ready (at %d)",
				u.Seq, cluster, p, k.s.regReady[cluster*k.s.nPhys+int(p)])
		}
	}
	if u.Class == isa.ClassLoad {
		for i := 0; i < k.s.unissuedStores.Len(); i++ {
			st := k.s.unissuedStores.At(i)
			if st.Seq < u.Seq && !st.Issued {
				k.failf("load %d issued past unissued older store %d", u.Seq, st.Seq)
			}
		}
	}
}

// onCycleEnd checks whole-machine structural invariants and resets the
// per-cycle counters.
func (k *checker) onCycleEnd() {
	k.committed, k.issued, k.memIssued = 0, 0, 0
	s := k.s
	if s.rob.Len() > s.cfg.MaxInFlight {
		k.failf("ROB holds %d instructions, capacity %d", s.rob.Len(), s.cfg.MaxInFlight)
	}
	if s.sched.Len() > s.sched.Capacity() {
		k.failf("scheduler holds %d instructions, capacity %d", s.sched.Len(), s.sched.Capacity())
	}
	unissued, dests := 0, 0
	for i := 0; i < s.rob.Len(); i++ {
		u := s.rob.At(i)
		if !u.Issued {
			unissued++
		}
		if u.PhysDest >= 0 {
			dests++
		}
	}
	if s.sched.Len() != unissued {
		k.failf("scheduler occupancy %d disagrees with %d unissued ROB entries", s.sched.Len(), unissued)
	}
	if got := s.rt.InFlight(); got != dests {
		k.failf("%d physical registers allocated, %d in-flight destinations (leak)", got, dests)
	}
}

// onDone checks the drained end-of-run state.
func (k *checker) onDone() {
	s := k.s
	if s.rob.Len() != 0 || s.fetchQ.Len() != 0 {
		k.failf("run finished with %d ROB / %d fetch-queue entries", s.rob.Len(), s.fetchQ.Len())
	}
	if s.sched.Len() != 0 {
		k.failf("run finished with %d instructions in the scheduler", s.sched.Len())
	}
	for i := 0; i < s.unissuedStores.Len(); i++ {
		if st := s.unissuedStores.At(i); !st.Issued {
			k.failf("run finished with unissued store %d", st.Seq)
		}
	}
	if got := s.rt.InFlight(); got != 0 {
		k.failf("run finished with %d physical registers leaked", got)
	}
	if !s.sourceHalted() {
		k.failf("run finished with the execution source not exhausted")
	}
}
