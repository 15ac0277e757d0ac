// Package cache implements the set-associative data cache model of the
// timing simulator. The paper's baseline (Table 3) is a 32 KB, 2-way
// set-associative, write-back write-allocate cache with 32-byte lines,
// 1-cycle hits and 6-cycle misses.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	SizeBytes  int // total capacity
	Ways       int
	LineBytes  int
	HitCycles  int
	MissCycles int
}

// Baseline returns the paper's D-cache configuration.
func Baseline() Config {
	return Config{
		SizeBytes:  32 << 10,
		Ways:       2,
		LineBytes:  32,
		HitCycles:  1,
		MissCycles: 6,
	}
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint32
	valid bool
	dirty bool
	lru   uint64
}

// Cache is a set-associative write-back write-allocate cache with LRU
// replacement.
type Cache struct {
	cfg      Config
	sets     [][]line
	setShift uint
	setMask  uint32
	clock    uint64
	stats    Stats
}

// New builds a cache; it panics only on a malformed config (zero or
// non-power-of-two geometry), which is a programming error.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", cfg)
	}
	nLines := cfg.SizeBytes / cfg.LineBytes
	nSets := nLines / cfg.Ways
	if nSets <= 0 || nSets&(nSets-1) != 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: geometry must give a power-of-two set count (got %d sets)", nSets)
	}
	c := &Cache{cfg: cfg, sets: make([][]line, nSets), setMask: uint32(nSets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Ways)
	}
	for shift := uint(0); ; shift++ {
		if 1<<shift == cfg.LineBytes {
			c.setShift = shift
			break
		}
	}
	return c, nil
}

// Access performs a load (write=false) or store (write=true) to addr and
// returns the access latency in cycles and whether it hit.
func (c *Cache) Access(addr uint32, write bool) (latency int, hit bool) {
	c.clock++
	c.stats.Accesses++
	setIdx := (addr >> c.setShift) & c.setMask
	tag := addr >> c.setShift >> log2(uint(len(c.sets)))
	set := c.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			if write {
				set[i].dirty = true
			}
			return c.cfg.HitCycles, true
		}
	}
	// Miss: allocate over the LRU way (write-allocate for stores too).
	c.stats.Misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
	}
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.clock}
	return c.cfg.MissCycles, false
}

// Stats returns the accumulated event counts.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func log2(n uint) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}
