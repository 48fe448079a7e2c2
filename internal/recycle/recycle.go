// Package recycle keeps the simulator's fixed-size tables — cache tag
// arrays, predictor tables, instruction-record slabs, memory pages —
// for the next simulation instead of leaving them to the garbage
// collector. A study
// runs hundreds of short simulations of the same machine, so building
// those tables afresh for every run dominated its heap traffic
// (DESIGN.md §8, "Recycled machine tables").
//
// A Pool hands out zeroed tables, reused or fresh. An owner whose fresh
// state is not all zeros (the gshare counters) fills the table itself,
// and every owner makes sure nothing reads a table after it was Put.
package recycle

import "sync"

// keep is the default bound on the tables retained per length: enough
// for the simulations a host runs at once, so a burst of concurrent
// runs does not pin its peak footprint for the life of the process.
const keep = 8

// Pool holds released tables keyed by length. The zero value is ready
// to use, and a Pool is safe for concurrent use.
type Pool[E any] struct {
	// Keep bounds the tables retained per length; zero means 8. An
	// owner whose simulation holds many tables of one length (the vm's
	// memory pages) raises it.
	Keep int

	mu   sync.Mutex
	free map[int][][]E
}

// Get returns a zeroed table of length n: a released one, cleared, when
// the pool holds one, else a fresh allocation.
func (p *Pool[E]) Get(n int) []E {
	p.mu.Lock()
	ts := p.free[n]
	if len(ts) == 0 {
		p.mu.Unlock()
		return make([]E, n)
	}
	t := ts[len(ts)-1]
	ts[len(ts)-1] = nil
	p.free[n] = ts[:len(ts)-1]
	p.mu.Unlock()
	clear(t)
	return t
}

// Put releases t for a later Get(len(t)); the caller must not use t
// afterwards. An empty t is ignored, and beyond Keep tables of one
// length t is left to the garbage collector.
func (p *Pool[E]) Put(t []E) {
	if len(t) == 0 {
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
	if ts := p.free[len(t)]; len(ts) < limit {
		p.free[len(t)] = append(ts, t)
	}
}

// Len returns the number of released tables of length n the pool
// holds.
func (p *Pool[E]) Len(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free[n])
}
