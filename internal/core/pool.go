package core

// UopPool is a per-simulator free list of Uops. Fetch allocates one Uop
// per dynamic instruction; recycling them at commit and squash keeps the
// simulator's steady state allocation-free instead of churning the GC.
// Not safe for concurrent use — each Simulator owns its own pool.
type UopPool struct {
	free []*Uop
}

// Get returns a zeroed Uop, reusing a recycled one when available. The
// PhysSrcs backing array is retained across recycling so rename can
// append into it without allocating.
//
//ce:hot
func (p *UopPool) Get() *Uop {
	n := len(p.free)
	if n == 0 {
		return &Uop{} //ce:alloc-ok pool miss: one allocation per pool high-water mark, amortized across the run
	}
	u := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	srcs := u.PhysSrcs[:0]
	*u = Uop{PhysSrcs: srcs}
	return u
}

// Put recycles a Uop the pipeline no longer references. The caller must
// guarantee no queue and no occupied scheduler slot still points at u.
//
//ce:hot
func (p *UopPool) Put(u *Uop) {
	if u == nil {
		return
	}
	p.free = append(p.free, u)
}
