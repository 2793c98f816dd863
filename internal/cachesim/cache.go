// Package cachesim is the hardware-counter substitute of this
// reproduction: the paper measures L1/L2 data-cache miss rates with PAPI
// (Table II); this environment has no access to the paper's processors, so
// the package simulates a set-associative LRU cache hierarchy configured
// from the machine model (Table III) and replays the *actual address
// streams* the LBM-IB kernels generate over the slab and cube data
// layouts, in the solvers' loop orders — the property the paper's
// locality argument depends on.
//
// The streams address the paper's node record, grid.Node (Figure 3: both
// distribution buffers and u, ρ, F in one 360-byte struct), not the split
// arrays the engines now store: the model reproduces Table II, which the
// paper measured on that record, so it keeps the record on purpose.
package cachesim

import "fmt"

// Stats counts accesses and misses at one cache level.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement. Stores are
// modeled write-allocate; write-back traffic is not modeled.
type Cache struct {
	lineBits uint
	sets     uint64
	assoc    int
	tags     []uint64 // sets × assoc, 0 = invalid
	age      []uint64 // LRU timestamps
	clock    uint64
	stats    Stats
}

// NewCache builds a cache of the given total size, line size and
// associativity. The line size must be a power of two; the set count may
// be arbitrary (real parts like a 12 MB L3 have non-power-of-two set
// counts), indexed by modulo.
func NewCache(sizeBytes, lineBytes, assoc int) (*Cache, error) {
	if sizeBytes <= 0 || lineBytes <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("cachesim: non-positive geometry %d/%d/%d", sizeBytes, lineBytes, assoc)
	}
	if sizeBytes%(lineBytes*assoc) != 0 {
		return nil, fmt.Errorf("cachesim: size %d not divisible by line %d × assoc %d", sizeBytes, lineBytes, assoc)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("cachesim: line size %d must be a power of two", lineBytes)
	}
	sets := sizeBytes / (lineBytes * assoc)
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	return &Cache{
		lineBits: lineBits,
		sets:     uint64(sets),
		assoc:    assoc,
		tags:     make([]uint64, sets*assoc),
		age:      make([]uint64, sets*assoc),
	}, nil
}

// Access looks up addr, inserting its line on a miss. It returns true on a
// hit. Tag 0 marks an invalid way, so line numbers are offset by one.
func (c *Cache) Access(addr uint64) bool {
	line := (addr >> c.lineBits) + 1
	set := int((addr >> c.lineBits) % c.sets)
	base := set * c.assoc
	c.clock++
	c.stats.Accesses++
	victim, oldest := base, ^uint64(0)
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == line {
			c.age[w] = c.clock
			return true
		}
		if c.age[w] < oldest {
			oldest = c.age[w]
			victim = w
		}
	}
	c.stats.Misses++
	c.tags[victim] = line
	c.age[victim] = c.clock
	return false
}

// Insert fills addr's line without charging a demand access — the path
// used by the prefetcher model.
func (c *Cache) Insert(addr uint64) {
	line := (addr >> c.lineBits) + 1
	set := int((addr >> c.lineBits) % c.sets)
	base := set * c.assoc
	c.clock++
	victim, oldest := base, ^uint64(0)
	for w := base; w < base+c.assoc; w++ {
		if c.tags[w] == line {
			c.age[w] = c.clock
			return
		}
		if c.age[w] < oldest {
			oldest = c.age[w]
			victim = w
		}
	}
	c.tags[victim] = line
	c.age[victim] = c.clock
}

// LineBytes returns the cache's line size.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the counters but keeps cache contents (so a warm-up
// pass can be excluded from measurement).
func (c *Cache) ResetStats() { c.stats = Stats{} }
