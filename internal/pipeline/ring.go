package pipeline

// instQueue is a growable power-of-two ring buffer of in-flight
// instructions. The cycle loop's structural queues (front, ROB, LSQ)
// push at the tail and pop at the head every cycle; a slice-backed
// queue would either shift on every pop (`q = q[1:]` leaks the prefix
// and re-allocates on wrap) or compact on every delete (O(n) per
// commit). The ring makes all of those O(1) and allocation-free in
// steady state: the buffer grows at most a few times at warm-up and is
// then reused for the rest of the run.
//
// Slots behind the head are left dirty on pop — every *dynInst is owned
// by the CPU's pool, which keeps it reachable regardless, and skipping
// the clearing store keeps PopFront to two integer writes.
type instQueue struct {
	buf  []*dynInst // len(buf) is a power of two; index mask is len-1
	head int        // position of the oldest element
	n    int        // live elements
}

// initQueue sizes the buffer for capacity elements (rounded up to a
// power of two) so steady-state operation never grows.
func (q *instQueue) initQueue(capacity int) {
	size := 1
	for size < capacity {
		size <<= 1
	}
	q.buf = queuePool.Get(size)
	q.head = 0
	q.n = 0
}

// Len returns the number of queued instructions.
func (q *instQueue) Len() int { return q.n }

// Front returns the oldest instruction; the caller checks Len first.
func (q *instQueue) Front() *dynInst { return q.buf[q.head] }

// At returns the i-th oldest instruction, 0 <= i < Len.
func (q *instQueue) At(i int) *dynInst {
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Back returns the youngest instruction; the caller checks Len first.
func (q *instQueue) Back() *dynInst {
	return q.buf[(q.head+q.n-1)&(len(q.buf)-1)]
}

// PushBack appends in as the youngest instruction.
func (q *instQueue) PushBack(in *dynInst) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = in
	q.n++
}

// PopFront removes and returns the oldest instruction.
func (q *instQueue) PopFront() *dynInst {
	in := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return in
}

// PopBack removes and returns the youngest instruction (squash path).
func (q *instQueue) PopBack() *dynInst {
	q.n--
	return q.buf[(q.head+q.n)&(len(q.buf)-1)]
}

// RemoveAt deletes the i-th oldest element, preserving order. It shifts
// the shorter side of the ring; the queues this backs only need it on
// defensive fallback paths (ordered pops cover the steady state).
func (q *instQueue) RemoveAt(i int) {
	mask := len(q.buf) - 1
	if i <= q.n-1-i {
		// Shift the front half forward.
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
		}
		q.head = (q.head + 1) & mask
	} else {
		// Shift the back half backward.
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
		}
	}
	q.n--
}

// grow doubles the buffer, unrolling the ring into index order.
func (q *instQueue) grow() {
	old := q.buf
	size := len(old) * 2
	if size == 0 {
		size = 8
	}
	buf := make([]*dynInst, size)
	mask := len(old) - 1
	for i := 0; i < q.n; i++ {
		buf[i] = old[(q.head+i)&mask]
	}
	q.buf = buf
	q.head = 0
}

// ---------- dynInst pool ----------

// seedPool fills the pool with one slab of n zeroed records, a released
// slab when available. Handing them out in slab order keeps
// neighbouring instructions on neighbouring cache lines.
func (c *CPU) seedPool(n int) {
	c.slab = recordPool.Get(n)
	c.pool = queuePool.Get(n)
	for i := range c.slab {
		c.pool[n-1-i] = &c.slab[i]
	}
}

// newDyn hands out a zeroed dynInst, recycling pooled ones. Fetch calls
// it once per instruction; without the pool that is one heap allocation
// (plus eventual GC scan work) per simulated instruction, the single
// largest cost in the cycle loop.
func (c *CPU) newDyn() *dynInst {
	if n := len(c.pool); n > 0 {
		in := c.pool[n-1]
		c.pool = c.pool[:n-1]
		return in
	}
	return new(dynInst)
}

// freeDyn returns an instruction to the pool once no structure can
// reach it: at commit (after the ROB pop, LSQ retirement, trace and
// lockstep hooks), and at squash for both renamed phantoms (removed
// from the ROB after the issue queues and LSQ drop them) and phantoms
// still waiting in the front queue. The instruction is zeroed here so
// every pool entry is indistinguishable from a fresh allocation.
func (c *CPU) freeDyn(in *dynInst) {
	*in = dynInst{}
	c.pool = append(c.pool, in)
}
