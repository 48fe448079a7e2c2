// Package vm implements the R64 architectural machine: a sparse 64-bit
// byte-addressed memory and the functional semantics of every opcode. It
// is the golden model the pipeline's timing simulation executes against,
// and it is usable on its own for trace generation and testing.
package vm

import (
	"encoding/binary"
	"sync"

	"carf/internal/recycle"
)

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Memory is a sparse, paged, little-endian 64-bit address space. The zero
// value is an empty memory ready to use; reads of unmapped addresses
// return zero without allocating.
//
// A machine's memory (see New) starts out mapping its program's
// initial image copy-on-write: its pages are shared with every other
// machine running that program, and a shared page is copied into a
// private one the first time this memory writes it. Reads still cost
// one map lookup, and the image itself is never written. Release hands
// a finished memory's private pages to the next machine's writes.
type Memory struct {
	pages map[uint64]frame
}

// frame is one mapped page; shared marks a page of a program image that
// must be copied before it is written.
type frame struct {
	p      *[pageSize]byte
	shared bool
}

// page returns the page holding addr, nil when it is unmapped.
func (m *Memory) page(addr uint64) *[pageSize]byte {
	return m.pages[addr>>pageBits].p
}

// writable returns the page holding addr, ready to be written: mapped
// if it was not, and made private if it was shared. New private pages
// come from pagePool, zeroed, and a shared page's bytes are copied over.
func (m *Memory) writable(addr uint64) *[pageSize]byte {
	pn := addr >> pageBits
	f := m.pages[pn]
	if f.p != nil && !f.shared {
		return f.p
	}
	p := (*[pageSize]byte)(pagePool.Get(pageSize))
	if f.p != nil {
		*p = *f.p
	}
	if m.pages == nil {
		m.pages = make(map[uint64]frame)
	}
	m.pages[pn] = frame{p: p}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.writable(addr)[addr&pageMask] = b
}

// Read returns size bytes starting at addr as a little-endian,
// zero-extended value. size must be 1, 2, 4, or 8. Accesses may be
// unaligned and may span pages.
func (m *Memory) Read(addr uint64, size int) uint64 {
	if p := m.page(addr); p != nil && addr&pageMask+uint64(size) <= pageSize {
		off := addr & pageMask
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 1:
			return uint64(p[off])
		}
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		v = v<<8 | uint64(m.LoadByte(addr+uint64(i)))
	}
	return v
}

// Write stores the low size bytes of val at addr, little-endian. size
// must be 1, 2, 4, or 8.
func (m *Memory) Write(addr uint64, size int, val uint64) {
	if addr&pageMask+uint64(size) <= pageSize {
		p := m.writable(addr)
		off := addr & pageMask
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(p[off:], val)
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(val))
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(val))
			return
		case 1:
			p[off] = byte(val)
			return
		}
	}
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(val>>(8*i)))
	}
}

// StoreBytes copies b into memory starting at addr, one page at a time.
func (m *Memory) StoreBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		n := copy(m.writable(addr)[addr&pageMask:], b)
		addr += uint64(n)
		b = b[n:]
	}
}

// LoadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) LoadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.LoadByte(addr + uint64(i))
	}
	return out
}

// MappedPages returns the number of mapped pages, shared and private
// alike, each counted once (for tests and memory footprint reporting).
func (m *Memory) MappedPages() int { return len(m.pages) }

// Release empties the memory and hands its private pages to the next
// writable call of any machine and its page map, cleared, to the next
// machine's memory; shared image pages are left to their program.
// Afterwards the memory reads as zeros everywhere and the caller must
// hold no slice of a released page.
func (m *Memory) Release() {
	for _, f := range m.pages {
		if !f.shared {
			pagePool.Put(f.p[:])
		}
	}
	if m.pages != nil {
		clear(m.pages)
		pageMaps.Put(m.pages)
	}
	m.pages = nil
}

// keepPages bounds the released pages kept at 1 MiB: twice the private
// pages the hungriest kernel dirties (128), so concurrent simulations
// still reuse most of theirs without a burst pinning its peak footprint.
const keepPages = 256

// pagePool holds released private pages, owned by no memory.
var pagePool = recycle.Pool[byte]{Keep: keepPages}

// pageMaps holds released page maps, empty, owned by no memory. A
// cleared map keeps its buckets, so a reused one takes the next
// machine's copy of its image, and the pages its run maps, without
// growing.
var pageMaps sync.Pool
