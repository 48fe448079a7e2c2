// Package cache models the memory hierarchy of Table 1: set-associative
// L1 instruction and data caches, a unified L2, and a flat-latency main
// memory. The model is a timing model only — data values live in the
// vm.Memory golden model — so caches track tags, LRU state, and
// latencies, which is all the register-file experiments need.
package cache

import (
	"fmt"

	"carf/internal/recycle"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles for a hit in this level
}

// Valid reports whether the configuration is internally consistent
// (power-of-two line size of at least two bytes and set count, non-zero
// ways).
func (c Config) Valid() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.LineBytes < 2 {
		// Ways store line+1; a 2^64-1 line number would wrap to invalid.
		return fmt.Errorf("cache %s: line size %d below 2 bytes", c.Name, c.LineBytes)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d", c.Name, c.Ways)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible into %d-way sets of %d-byte lines",
			c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// way is one cache line's tag state; the zero value is an invalid way.
type way struct {
	tag uint64 // line number + 1; 0 = invalid
	lru uint64 // last-touched stamp; larger = more recent
}

// Stats counts cache events.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses per access (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative, LRU, write-allocate cache level.
type Cache struct {
	cfg       Config
	ways      []way // set s occupies ways[s*Ways : (s+1)*Ways]
	lineShift uint
	setMask   uint64
	stamp     uint64
	stats     Stats
}

// wayPool recycles tag arrays released by Hierarchy.Release.
var wayPool recycle.Pool[way]

// New builds a cache from cfg, rejecting invalid configurations with a
// descriptive error (see Config.Valid). The tag array is a released one
// when available, every way invalid as in a fresh one.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Valid(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	shift := uint(0)
	for 1<<shift != cfg.LineBytes {
		shift++
	}
	return &Cache{cfg: cfg, ways: wayPool.Get(numSets * cfg.Ways), lineShift: shift, setMask: uint64(numSets - 1)}, nil
}

// set returns the ways of the set holding line.
func (c *Cache) set(line uint64) []way {
	i := int(line&c.setMask) * c.cfg.Ways
	return c.ways[i : i+c.cfg.Ways]
}

// Access looks up addr, filling the line on a miss (LRU victim), and
// reports whether it hit. Reads and writes behave identically for tag
// state (write-allocate, no write-back traffic modeled).
func (c *Cache) Access(addr uint64) bool {
	c.stamp++
	c.stats.Accesses++
	line := addr >> c.lineShift
	set := c.set(line)
	t := line + 1 // the full line number serves as the tag (see way)
	victim := 0
	for i := range set {
		if set[i].tag == t {
			set[i].lru = c.stamp
			return true
		}
		if set[i].lru < set[victim].lru || set[i].tag == 0 && set[victim].tag != 0 {
			victim = i
		}
	}
	c.stats.Misses++
	set[victim] = way{tag: t, lru: c.stamp}
	return false
}

// Probe reports whether addr is resident without touching LRU or stats.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.lineShift
	for _, w := range c.set(line) {
		if w.tag == line+1 {
			return true
		}
	}
	return false
}

// Stats returns the access counters so far.
func (c *Cache) Stats() Stats { return c.stats }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Reset invalidates every line and clears statistics.
func (c *Cache) Reset() {
	clear(c.ways)
	c.stamp = 0
	c.stats = Stats{}
}

// HierarchyConfig sizes the full memory system.
type HierarchyConfig struct {
	L1I        Config
	L1D        Config
	L2         Config
	MemLatency int // cycles for an L2 miss to reach DRAM
}

// DefaultHierarchy returns the Table 1 memory system: 32KB 4-way L1s
// (1 cycle), 1MB 4-way L2 (10 cycles), 100-cycle memory.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{Name: "L1I", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1},
		L1D:        Config{Name: "L1D", SizeBytes: 32 << 10, LineBytes: 64, Ways: 4, HitLatency: 1},
		L2:         Config{Name: "L2", SizeBytes: 1 << 20, LineBytes: 64, Ways: 4, HitLatency: 10},
		MemLatency: 100,
	}
}

// Valid reports whether every level of the hierarchy is internally
// consistent.
func (c HierarchyConfig) Valid() error {
	for _, lvl := range []Config{c.L1I, c.L1D, c.L2} {
		if err := lvl.Valid(); err != nil {
			return err
		}
	}
	if c.MemLatency < 0 {
		return fmt.Errorf("cache: negative memory latency %d", c.MemLatency)
	}
	return nil
}

// MissObserver is notified of every L1 miss with the PC of the
// instruction that caused it: instr distinguishes L1I from L1D misses,
// and mem reports whether main memory (rather than the L2) served the
// fill. Observers must not call back into the hierarchy.
type MissObserver func(pc, addr uint64, instr, mem bool)

// Hierarchy is the assembled memory system.
type Hierarchy struct {
	L1I    *Cache
	L1D    *Cache
	L2     *Cache
	cfg    HierarchyConfig
	onMiss MissObserver
}

// SetMissObserver installs fn to be called on every L1 miss (nil
// removes it). The observer is consulted only on misses, so the hit
// path stays unchanged.
func (h *Hierarchy) SetMissObserver(fn MissObserver) { h.onMiss = fn }

// NewHierarchy builds the memory system from cfg, rejecting invalid
// level configurations with a descriptive error.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	if cfg.MemLatency < 0 {
		return nil, fmt.Errorf("cache: negative memory latency %d", cfg.MemLatency)
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, cfg: cfg}, nil
}

// FetchLatency returns the latency in cycles to fetch the instruction
// line at addr, updating cache state.
func (h *Hierarchy) FetchLatency(addr uint64) int {
	return h.accessPC(h.L1I, addr, addr, true)
}

// DataLatency returns the latency in cycles for a data access at addr,
// updating cache state. Stores and loads are identical for tag state.
func (h *Hierarchy) DataLatency(addr uint64) int {
	return h.accessPC(h.L1D, addr, 0, false)
}

// DataLatencyPC is DataLatency with the accessing instruction's PC, so
// a miss observer can attribute the miss to its static instruction.
func (h *Hierarchy) DataLatencyPC(addr, pc uint64) int {
	return h.accessPC(h.L1D, addr, pc, false)
}

func (h *Hierarchy) accessPC(l1 *Cache, addr, pc uint64, instr bool) int {
	lat := l1.Config().HitLatency
	if l1.Access(addr) {
		return lat
	}
	lat += h.L2.Config().HitLatency
	l2hit := h.L2.Access(addr)
	if h.onMiss != nil {
		h.onMiss(pc, addr, instr, !l2hit)
	}
	if l2hit {
		return lat
	}
	return lat + h.cfg.MemLatency
}

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
}

// Release hands every level's tag array back for reuse by a later New.
// Statistics and configuration stay readable; the levels must not be
// accessed or probed again. Releasing twice is a no-op.
func (h *Hierarchy) Release() {
	for _, c := range []*Cache{h.L1I, h.L1D, h.L2} {
		wayPool.Return(&c.ways)
	}
}
