package core

import (
	"math"
	"math/bits"
)

// NeverWake is returned by Scheduler.NextWake when the scheduler holds no
// buffered uops: no future cycle can see it offer an issue candidate.
const NeverWake int64 = math.MaxInt64

// WakeNow is returned by Scheduler.NextWake when an issue candidate is
// already awake: Select must run this cycle.
const WakeNow int64 = math.MinInt64

// regPending marks a physical register whose producer is buffered and has
// not issued yet.
const regPending int64 = math.MaxInt64

// Bounds are the machine limits a scheduler sizes its slot arrays from.
type Bounds struct {
	// InFlight bounds how far apart the Seqs of buffered uops lie. Every
	// buffered uop is also in the reorder buffer, so the reorder-buffer
	// capacity is a bound.
	InFlight int
	// PhysRegs bounds physical register numbers.
	PhysRegs int
}

// slots is the wakeup/select structure shared by CentralWindow and
// FIFOBank, kept the way the paper costs the hardware: wakeup is a tag
// broadcast matched against every entry (Section 4.2) and select a
// priority find-first-set over a request mask (Section 4.3).
//
// A buffered uop lives in slot Seq mod R, where R is the power of two at
// or above Bounds.InFlight. Live Seqs span fewer than R values, so slots
// never collide, and walking the slots upward from the one after the
// newest uop's visits them oldest first. Each set of slots is a mask of
// ⌈R/64⌉ words:
//
//   - occupied: every buffered uop;
//   - asleep: uops whose producers have all issued but whose wake cycle —
//     a lower bound on the first cycle every operand is consumable in
//     some cluster — had not arrived when Select last looked;
//   - awake: uops whose wake cycle has arrived, the select candidates;
//   - cons[p]: uops still waiting for the producer of physical register p.
//
// A uop with pending sources is in neither asleep nor awake. Wakeup(p)
// walks cons[p], so wakeup work is proportional to result events, not to
// window size. The pipeline's tryIssue callback remains the authority on
// per-cluster readiness, functional units and ports, so offering a
// superset of the issuable uops in age order leaves timing unchanged.
type slots struct {
	words int
	mod   uint64 // R-1
	uop   []*Uop
	// wake and pending are per slot: the wake cycle, and the number of
	// distinct source registers whose producer has not issued.
	wake    []int64
	pending []int8

	occupied, asleep, awake []uint64
	// minWake lower-bounds wake over the asleep slots (NeverWake when
	// none); promote makes it exact.
	minWake int64

	cons []uint64 // PhysRegs × words
	// regWake is, per physical register, regPending or the cycle its
	// value becomes consumable in the nearest cluster.
	regWake []int64

	// Age order starts at the slot after the most recently inserted
	// uop's: in word w0, above the bits in low.
	w0  int
	low uint64
	// order is the scratch slot list ageOrder fills and offer returns.
	order []int32
}

func newSlots(b Bounds) slots {
	r := 1
	for r < b.InFlight {
		r <<= 1
	}
	words := (r + 63) / 64
	return slots{
		words:    words,
		mod:      uint64(r - 1),
		uop:      make([]*Uop, r),
		wake:     make([]int64, r),
		pending:  make([]int8, r),
		occupied: make([]uint64, words),
		asleep:   make([]uint64, words),
		awake:    make([]uint64, words),
		minWake:  NeverWake,
		cons:     make([]uint64, b.PhysRegs*words),
		regWake:  make([]int64, b.PhysRegs),
		order:    make([]int32, 0, r),
	}
}

// insert buffers u: it waits on each source whose producer has not
// issued, and sleeps until its wake cycle once none is left. u's
// destination is pending until Wakeup reports its producer issued.
func (t *slots) insert(u *Uop) int {
	s := int(u.Seq & t.mod)
	w, bit := s>>6, uint64(1)<<(s&63)
	t.uop[s] = u
	t.occupied[w] |= bit
	pending := int8(0)
	wake := int64(0)
	for _, p := range u.PhysSrcs {
		if p < 0 {
			continue
		}
		if rw := t.regWake[p]; rw == regPending {
			// A source read twice waits on one broadcast.
			if c := &t.cons[int(p)*t.words+w]; *c&bit == 0 {
				*c |= bit
				pending++
			}
		} else {
			wake = max(wake, rw)
		}
	}
	t.pending[s] = pending
	t.wake[s] = wake
	if pending == 0 {
		t.asleep[w] |= bit
		t.minWake = min(t.minWake, wake)
	}
	if u.PhysDest >= 0 {
		t.regWake[u.PhysDest] = regPending
	}
	next := int((u.Seq + 1) & t.mod)
	t.w0, t.low = next>>6, uint64(1)<<(next&63)-1
	return s
}

// wakeup broadcasts that the producer of physical register p has issued
// and its value is consumable, in the nearest cluster, at readyCycle.
func (t *slots) wakeup(p int16, readyCycle int64) {
	t.regWake[p] = readyCycle
	cons := t.cons[int(p)*t.words : int(p+1)*t.words]
	for w, m := range cons {
		if m == 0 {
			continue
		}
		cons[w] = 0
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			s := w<<6 | b
			t.wake[s] = max(t.wake[s], readyCycle)
			if t.pending[s]--; t.pending[s] == 0 {
				t.asleep[w] |= 1 << b
				t.minWake = min(t.minWake, t.wake[s])
			}
		}
	}
}

// promote wakes every asleep uop whose wake cycle has arrived.
func (t *slots) promote(now int64) {
	if t.minWake > now {
		return
	}
	next := NeverWake
	for w, m := range t.asleep {
		for m != 0 {
			b := bits.TrailingZeros64(m)
			m &= m - 1
			if wk := t.wake[w<<6|b]; wk <= now {
				t.asleep[w] &^= 1 << b
				t.awake[w] |= 1 << b
			} else {
				next = min(next, wk)
			}
		}
	}
	t.minWake = next
}

// nextWake reports a lower bound on the next cycle a uop can be awake.
func (t *slots) nextWake() int64 {
	for _, m := range t.awake {
		if m != 0 {
			return WakeNow
		}
	}
	return t.minWake
}

// segment returns piece k of the slot ring in age order: word w, limited
// to the bits in keep. Piece 0 runs from the slot after the newest uop's
// to the end of its word, piece t.words is the rest of that word, and
// the pieces between are whole words.
func (t *slots) segment(k int) (w int, keep uint64) {
	if w = t.w0 + k; w >= t.words {
		w -= t.words
	}
	switch k {
	case 0:
		return w, ^t.low
	case t.words:
		return w, t.low
	}
	return w, ^uint64(0)
}

// ageOrder lists the slots set in mask, oldest first, into the order
// scratch list.
func (t *slots) ageOrder(mask []uint64) []int32 {
	order := t.order[:0]
	for k := 0; k <= t.words; k++ {
		w, keep := t.segment(k)
		for m := mask[w] & keep; m != 0; m &= m - 1 {
			order = append(order, int32(w<<6|bits.TrailingZeros64(m)))
		}
	}
	t.order = order
	return order
}

// offer is oldest-first select: it offers the uops in cand to tryIssue
// in age order, removes those it accepts and returns their slots, oldest
// first. Each word of cand is read before its uops are offered, so the
// removals are safe.
func (t *slots) offer(cand []uint64, tryIssue func(u *Uop) bool) []int32 {
	issued := t.order[:0]
	for k := 0; k <= t.words; k++ {
		w, keep := t.segment(k)
		for m := cand[w] & keep; m != 0; m &= m - 1 {
			if s := w<<6 | bits.TrailingZeros64(m); tryIssue(t.uop[s]) {
				t.remove(s)
				issued = append(issued, int32(s))
			}
		}
	}
	t.order = issued
	return issued
}

// oldest returns the oldest slot set in mask, or -1.
func (t *slots) oldest(mask []uint64) int32 {
	for k := 0; k <= t.words; k++ {
		if w, keep := t.segment(k); mask[w]&keep != 0 {
			return int32(w<<6 | bits.TrailingZeros64(mask[w]&keep))
		}
	}
	return -1
}

// youngest returns the youngest slot set in mask, or -1.
func (t *slots) youngest(mask []uint64) int32 {
	for k := t.words; k >= 0; k-- {
		if w, keep := t.segment(k); mask[w]&keep != 0 {
			return int32(w<<6 | (63 - bits.LeadingZeros64(mask[w]&keep)))
		}
	}
	return -1
}

// remove drops slot s on issue.
func (t *slots) remove(s int) {
	w, bit := s>>6, uint64(1)<<(s&63)
	t.occupied[w] &^= bit
	t.asleep[w] &^= bit
	t.awake[w] &^= bit
	if t.pending[s] > 0 {
		for _, p := range t.uop[s].PhysSrcs {
			if p >= 0 {
				t.cons[int(p)*t.words+w] &^= bit
			}
		}
		t.pending[s] = 0
	}
}
