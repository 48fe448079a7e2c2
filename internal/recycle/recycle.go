// Package recycle keeps the simulator's fixed-size tables — cache tag
// arrays, predictor tables, instruction-record slabs, memory pages, the
// pipeline's scoreboards and queues, the register files' arrays — for
// the next simulation instead of leaving them to the garbage collector.
// A study runs hundreds of short simulations of the same machine, so
// building those tables afresh for every run dominated its heap traffic
// (DESIGN.md §8, "Recycled machine tables").
//
// A Pool hands out zeroed tables, reused or fresh. An owner whose fresh
// state is not all zeros (the gshare counters) fills the table itself,
// and every owner makes sure nothing reads a table after releasing it.
package recycle

import (
	"sync"
	"unsafe"
)

// keep is the default bound on the tables retained per capacity: enough
// for the simulations a host runs at once, so a burst of concurrent
// runs does not pin its peak footprint for the life of the process.
const keep = 8

// lineBytes is the cache line size tables are padded to. Reuse hands
// neighbouring tables to simulations that run at once on different
// cores, and two tables sharing a line would slow both: every write
// takes the line from the other core.
const lineBytes = 64

// capFor returns the capacity of a table of n elements: n rounded up so
// the table fills whole cache lines. The runtime allocates such a table
// line-aligned, in a size class of whole lines, so it shares no line
// with another object.
func capFor[E any](n int) int {
	step := 1
	if s := int(unsafe.Sizeof(*new(E))); s > 0 {
		step = lineBytes / min(s&-s, lineBytes)
	}
	return (n + step - 1) / step * step
}

// Pool holds released tables keyed by capacity, n padded to whole
// cache lines (see capFor). The zero value is ready to use, and a Pool
// is safe for concurrent use.
type Pool[E any] struct {
	// Keep bounds the tables retained per capacity; zero means 8. An
	// owner whose simulation holds many tables of one length (the vm's
	// memory pages) raises it.
	Keep int

	mu   sync.Mutex
	free map[int][][]E
}

// Get returns a zeroed table of length n whose capacity fills whole
// cache lines: a released one, cleared, when the pool holds one, else a
// fresh allocation.
func (p *Pool[E]) Get(n int) []E {
	c := capFor[E](n)
	p.mu.Lock()
	ts := p.free[c]
	if len(ts) == 0 {
		p.mu.Unlock()
		return make([]E, n, c)
	}
	t := ts[len(ts)-1]
	ts[len(ts)-1] = nil
	p.free[c] = ts[:len(ts)-1]
	p.mu.Unlock()
	clear(t)
	return t[:n]
}

// Put releases t, at its full capacity, for a later Get; the caller
// must not use t afterwards. An empty t, one whose capacity Get would
// not have made, and one beyond Keep tables of its capacity are left
// to the garbage collector.
func (p *Pool[E]) Put(t []E) {
	c := cap(t)
	if c == 0 || capFor[E](c) != c {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[int][][]E)
	}
	limit := p.Keep
	if limit == 0 {
		limit = keep
	}
	if ts := p.free[c]; len(ts) < limit {
		p.free[c] = append(ts, t[:c])
	}
}

// Return puts the table behind *t — also one its owner reslices as a
// stack or queue — and sets *t to nil, so an owner that returns its
// tables twice puts each back once.
func (p *Pool[E]) Return(t *[]E) {
	p.Put(*t)
	*t = nil
}

// Len returns the number of released tables the pool holds for Get(n).
func (p *Pool[E]) Len(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free[capFor[E](n)])
}
