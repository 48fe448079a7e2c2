package cache

import (
	"testing"
	"testing/quick"
)

func cfg4way() Config {
	return Config{Name: "t", SizeBytes: 4096, LineBytes: 64, Ways: 4, HitLatency: 1}
}

func TestConfigValidation(t *testing.T) {
	good := cfg4way()
	if err := good.Valid(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Name: "line", SizeBytes: 4096, LineBytes: 48, Ways: 4},
		{Name: "byte", SizeBytes: 4096, LineBytes: 1, Ways: 4},
		{Name: "ways", SizeBytes: 4096, LineBytes: 64, Ways: 0},
		{Name: "size", SizeBytes: 4000, LineBytes: 64, Ways: 4},
		{Name: "sets", SizeBytes: 64 * 3 * 4, LineBytes: 64, Ways: 4},
	}
	for _, c := range bad {
		if err := c.Valid(); err == nil {
			t.Errorf("config %q should be invalid", c.Name)
		}
	}
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestColdMissThenHit(t *testing.T) {
	c := mustNew(t, cfg4way())
	if c.Access(0x1000) {
		t.Error("cold access should miss")
	}
	if !c.Access(0x1000) {
		t.Error("second access should hit")
	}
	if !c.Access(0x1038) {
		t.Error("same-line access should hit")
	}
	if c.Access(0x1040) {
		t.Error("next line should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.MissRate(); got != 0.5 {
		t.Errorf("miss rate %v", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := mustNew(t, cfg4way()) // 16 sets, 4 ways
	// Five lines mapping to the same set (stride = 16 sets * 64B = 1024).
	addrs := []uint64{0, 1024, 2048, 3072, 4096}
	for _, a := range addrs[:4] {
		c.Access(a)
	}
	c.Access(addrs[0]) // refresh line 0 so line at 1024 is LRU
	c.Access(addrs[4]) // evicts 1024
	if !c.Probe(addrs[0]) {
		t.Error("recently-used line was evicted")
	}
	if c.Probe(addrs[1]) {
		t.Error("LRU line should have been evicted")
	}
	if !c.Probe(addrs[4]) {
		t.Error("filled line not resident")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := mustNew(t, cfg4way())
	c.Access(0x40)
	before := c.Stats()
	c.Probe(0x40)
	c.Probe(0x9999)
	if c.Stats() != before {
		t.Error("Probe changed statistics")
	}
}

func TestReset(t *testing.T) {
	c := mustNew(t, cfg4way())
	c.Access(0x40)
	c.Reset()
	if c.Probe(0x40) {
		t.Error("line survived reset")
	}
	if c.Stats().Accesses != 0 {
		t.Error("stats survived reset")
	}
}

// Property: a working set no larger than one set's associativity never
// misses after the cold pass, regardless of addresses chosen.
func TestAssociativityProperty(t *testing.T) {
	f := func(lineSeed uint64) bool {
		c, err := New(cfg4way())
		if err != nil {
			return false
		}
		base := (lineSeed % (1 << 20)) * 1024 // all map to set 0 region pattern
		addrs := []uint64{base, base + 1024, base + 2048, base + 3072}
		for _, a := range addrs {
			c.Access(a)
		}
		for _, a := range addrs {
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchy())
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	// Cold: L1 miss + L2 miss + memory.
	if got := h.DataLatency(0x5000); got != 1+10+100 {
		t.Errorf("cold data access latency %d", got)
	}
	// Warm L1.
	if got := h.DataLatency(0x5000); got != 1 {
		t.Errorf("warm L1 latency %d", got)
	}
	// Evict from L1 but not L2: touch 9 conflicting lines (L1 has 128
	// sets * 4 ways; stride 128*64 = 8192 conflicts in L1; L2 has 4096
	// sets, stride for L2 conflict is 4096*64 = 256KB, so these stay in L2).
	for i := uint64(1); i <= 8; i++ {
		h.DataLatency(0x5000 + i*8192)
	}
	if got := h.DataLatency(0x5000); got != 1+10 {
		t.Errorf("L2 hit latency %d, want 11", got)
	}
	if h.L1I.Stats().Accesses != 0 {
		t.Error("data access touched the I-cache")
	}
	// Instruction path uses L1I + shared L2.
	if got := h.FetchLatency(0x400000); got != 111 {
		t.Errorf("cold fetch latency %d", got)
	}
	if got := h.FetchLatency(0x400000); got != 1 {
		t.Errorf("warm fetch latency %d", got)
	}
}

func TestHierarchyReset(t *testing.T) {
	h, err := NewHierarchy(DefaultHierarchy())
	if err != nil {
		t.Fatalf("NewHierarchy: %v", err)
	}
	h.DataLatency(0x100)
	h.FetchLatency(0x100)
	h.Reset()
	if h.L1D.Stats().Accesses != 0 || h.L1I.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 {
		t.Error("reset did not clear stats")
	}
	if got := h.DataLatency(0x100); got != 111 {
		t.Errorf("post-reset access latency %d, want cold 111", got)
	}
}

func TestTable1Shapes(t *testing.T) {
	cfg := DefaultHierarchy()
	if cfg.L1I.SizeBytes != 32<<10 || cfg.L1I.Ways != 4 {
		t.Error("L1I does not match Table 1")
	}
	if cfg.L1D.SizeBytes != 32<<10 || cfg.L1D.Ways != 4 || cfg.L1D.HitLatency != 1 {
		t.Error("L1D does not match Table 1")
	}
	if cfg.L2.SizeBytes != 1<<20 || cfg.L2.Ways != 4 || cfg.L2.HitLatency != 10 {
		t.Error("L2 does not match Table 1")
	}
	if cfg.MemLatency != 100 {
		t.Error("memory latency does not match Table 1")
	}
}
