// Package vm implements the R64 architectural machine: a sparse 64-bit
// byte-addressed memory and the functional semantics of every opcode. It
// is the golden model the pipeline's timing simulation executes against,
// and it is usable on its own for trace generation and testing.
package vm

import "encoding/binary"

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Memory is a sparse, paged, little-endian 64-bit address space. The zero
// value is an empty memory ready to use; reads of unmapped addresses
// return zero without allocating.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

func (m *Memory) page(addr uint64, allocate bool) *[pageSize]byte {
	pn := addr >> pageBits
	p := m.pages[pn]
	if p == nil && allocate {
		if m.pages == nil {
			m.pages = make(map[uint64]*[pageSize]byte)
		}
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read returns size bytes starting at addr as a little-endian,
// zero-extended value. size must be 1, 2, 4, or 8. Accesses may be
// unaligned and may span pages.
func (m *Memory) Read(addr uint64, size int) uint64 {
	if p := m.page(addr, false); p != nil && addr&pageMask+uint64(size) <= pageSize {
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
		p := m.page(addr, true)
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
		n := copy(m.page(addr, true)[addr&pageMask:], b)
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

// MappedPages returns the number of resident pages (for tests and memory
// footprint reporting).
func (m *Memory) MappedPages() int { return len(m.pages) }
