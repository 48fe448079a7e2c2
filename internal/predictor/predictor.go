// Package predictor implements the front-end predictors of Table 1: a
// gshare conditional branch predictor with 14 bits of global history, a
// branch target buffer for taken-branch and jump targets, and a return
// address stack for call/return pairs.
package predictor

import (
	"carf/internal/recycle"
)

// Tables released by Gshare.Release, BTB.Release and RAS.Release,
// reused by the constructors.
var (
	counterPool recycle.Pool[uint8]
	btbPool     recycle.Pool[btbEntry]
	rasPool     recycle.Pool[uint64]
)

// GshareConfig sizes the conditional predictor.
type GshareConfig struct {
	HistoryBits int // global history length; table has 2^HistoryBits counters
}

// Gshare is a global-history, XOR-indexed array of 2-bit saturating
// counters.
type Gshare struct {
	history uint64
	mask    uint64
	table   []uint8

	predicts uint64
	correct  uint64

	onMispredict func(pc uint64)
}

// SetMispredictObserver installs fn to be called with the branch PC on
// every direction misprediction observed at Update (nil removes it).
func (g *Gshare) SetMispredictObserver(fn func(pc uint64)) { g.onMispredict = fn }

// NewGshare builds a gshare predictor with the given history length.
func NewGshare(cfg GshareConfig) *Gshare {
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 24 {
		cfg.HistoryBits = 14
	}
	size := 1 << cfg.HistoryBits
	t := counterPool.Get(size)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &Gshare{mask: uint64(size - 1), table: t}
}

// Release hands the counter table back for reuse by a later NewGshare.
// Accuracy and Counts stay readable; Predict and Update must not be
// called again. Releasing twice is a no-op.
func (g *Gshare) Release() {
	counterPool.Return(&g.table)
}

func (g *Gshare) index(pc uint64) uint64 {
	return (pc>>3 ^ g.history) & g.mask
}

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool {
	return g.table[g.index(pc)] >= 2
}

// Update records the actual outcome of the branch at pc: it trains the
// counter, shifts the outcome into the global history, and keeps
// accuracy statistics. Callers invoke Predict before Update for each
// dynamic branch.
func (g *Gshare) Update(pc uint64, taken bool) {
	idx := g.index(pc)
	pred := g.table[idx] >= 2
	g.predicts++
	if pred == taken {
		g.correct++
	} else if g.onMispredict != nil {
		g.onMispredict(pc)
	}
	if taken {
		if g.table[idx] < 3 {
			g.table[idx]++
		}
	} else if g.table[idx] > 0 {
		g.table[idx]--
	}
	g.history = g.history<<1 | b2u(taken)
}

// Counts returns the direction predictions made and the correct ones.
func (g *Gshare) Counts() (predicts, correct uint64) { return g.predicts, g.correct }

// Accuracy returns the fraction of correct direction predictions.
func (g *Gshare) Accuracy() float64 {
	if g.predicts == 0 {
		return 0
	}
	return float64(g.correct) / float64(g.predicts)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	entries []btbEntry
	mask    uint64
	hits    uint64
	lookups uint64
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// NewBTB builds a BTB with the given number of entries (rounded up to a
// power of two).
func NewBTB(entries int) *BTB {
	n := 1
	for n < entries {
		n <<= 1
	}
	return &BTB{entries: btbPool.Get(n), mask: uint64(n - 1)}
}

// Release hands the entry table back for reuse by a later NewBTB.
// HitRate and Counts stay readable; Lookup and Insert must not be
// called again. Releasing twice is a no-op.
func (b *BTB) Release() {
	btbPool.Return(&b.entries)
}

// Lookup returns the predicted target for the control instruction at pc.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	b.lookups++
	e := b.entries[pc>>3&b.mask]
	if e.valid && e.tag == pc {
		b.hits++
		return e.target, true
	}
	return 0, false
}

// Insert records the actual target of the control instruction at pc.
func (b *BTB) Insert(pc, target uint64) {
	b.entries[pc>>3&b.mask] = btbEntry{tag: pc, target: target, valid: true}
}

// Counts returns the lookups made and the ones that hit.
func (b *BTB) Counts() (lookups, hits uint64) { return b.lookups, b.hits }

// HitRate returns the fraction of lookups that hit.
func (b *BTB) HitRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.hits) / float64(b.lookups)
}

// RAS is a fixed-depth return address stack. Overflow wraps (oldest
// entries are lost), underflow returns no prediction.
type RAS struct {
	stack []uint64
	top   int // number of live entries, up to cap
}

// NewRAS builds a return address stack with the given depth.
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		depth = 16
	}
	return &RAS{stack: rasPool.Get(depth)[:0:depth]} // cap is the depth
}

// Release hands the stack back for reuse by a later NewRAS; Push and
// Pop must not be called again. Releasing twice is a no-op.
func (r *RAS) Release() { rasPool.Return(&r.stack) }

// Push records a return address at a call.
func (r *RAS) Push(addr uint64) {
	if len(r.stack) == cap(r.stack) {
		copy(r.stack, r.stack[1:])
		r.stack[len(r.stack)-1] = addr
		return
	}
	r.stack = append(r.stack, addr)
}

// Pop predicts the target of a return.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if len(r.stack) == 0 {
		return 0, false
	}
	addr = r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	return addr, true
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return len(r.stack) }
