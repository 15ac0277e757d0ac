package core

// UopPool is a per-simulator free list of Uops. Fetch takes one Uop per
// dynamic instruction and commit returns it, so the simulator never
// allocates per instruction. The pool is filled once to the
// machine's in-flight bound: Get on an empty pool and Put on a full one
// are bugs and panic. Not safe for concurrent use — each Simulator owns
// its own pool.
type UopPool struct {
	free []*Uop
}

// NewUopPool returns a pool of n Uops backed by one slab, each with room
// for the two physical sources an instruction can name, so rename writes
// PhysSrcs in place.
func NewUopPool(n int) UopPool {
	slab := make([]Uop, n)
	srcs := make([]int16, 2*n)
	p := UopPool{free: make([]*Uop, n)}
	for i := range slab {
		slab[i].PhysSrcs = srcs[2*i : 2*i : 2*i+2]
		p.free[i] = &slab[i]
	}
	return p
}

// Get returns a zeroed Uop whose PhysSrcs keeps its backing array.
func (p *UopPool) Get() *Uop {
	n := len(p.free)
	if n == 0 {
		panic("core: UopPool.Get on an empty pool (more uops in flight than the pool's bound)")
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
func (p *UopPool) Put(u *Uop) {
	if u == nil {
		return
	}
	n := len(p.free)
	if n == cap(p.free) {
		panic("core: UopPool.Put on a full pool (a uop returned twice)")
	}
	p.free = p.free[:n+1]
	p.free[n] = u
}
